/**
 * @file
 * sieve — the command-line driver.
 *
 * The paper ships its methodology as scripts plus the identified
 * representative kernel invocations and their traces; this tool is
 * that release surface for this repository:
 *
 *   sieve list
 *       Table I registry: workloads, kernels, invocation counts.
 *   sieve profile <workload> [--pks] [-o FILE]
 *       Write the profile CSV (Sieve schema by default, the
 *       12-metric PKS schema with --pks).
 *   sieve sample <workload> [--method sieve|pks|tbpoint|random]
 *                [--theta X] [-o FILE]
 *       Select representative invocations; write them with their
 *       weights as CSV.
 *   sieve evaluate <workload> [--method M] [--arch ampere|turing]
 *                [--theta X]
 *       Run the full evaluation (golden run + prediction) and print
 *       error, speedup, and dispersion.
 *   sieve trace <workload> [--out DIR] [--theta X] [--ctas N]
 *       Export the SASS traces of the Sieve representatives.
 *
 *   sample/evaluate/trace also take --stream [--ingest-budget-mb N]
 *   on .swl files: out-of-core windowed ingestion with byte-identical
 *   output (see eval/streaming.hh).
 *
 *   sieve shard-stats <workload>... [--shards N] [--dir D]
 *                [--content-seeded] [--csv] [-o FILE]
 *       Route the representative traces through a digest-sharded
 *       store and print the per-shard census: blobs, bytes, dedup
 *       ratio at rest, index health.
 *   sieve simulate <trace-file>... [--arch ampere|turing] [--pkp]
 *                [--jobs N]
 *       Run the cycle-level simulator on exported traces; several
 *       files are simulated concurrently over N workers.
 *   sieve trace-summary <trace.json> [--by-name] [--csv] [-o FILE]
 *       Aggregate a Chrome trace written by --trace-out into a
 *       per-stage wall-clock table.
 *   sieve trace-stats <workload>... [--theta X] [--ctas N]
 *                [--trace-budget-mb N] [--jobs N] [--csv] [-o FILE]
 *       Memory census of the representative trace sets: resident
 *       bytes, bytes/instruction, dictionary sizes, and tier
 *       occupancy per workload.
 *   sieve metrics-diff <a.json> <b.json>
 *       Compare the stable counters of two metrics exports; exit 1
 *       on any difference (the CI determinism gate).
 *   sieve fuzz-ingest [--seed N] [--mutations N] [--smoke] [--jobs N]
 *       Replay a seeded corpus of corrupted profiles, workload
 *       binaries, and traces through the recoverable parsers; exit 1
 *       if any case crashes or is accepted with invalid content
 *       (the CI robustness gate).
 *   sieve runs list|show|diff|regress [--ledger F]
 *       Inspect the append-only run ledger (obs/ledger.hh);
 *       `regress` exits non-zero when the latest run exceeds its
 *       baseline window — the perf-regression watchdog.
 *   sieve perf-report [BENCH_*.json...] [--out F]
 *       Consolidate bench snapshots into BENCH_HISTORY.jsonl and
 *       print per-op median trajectories.
 *
 * Every command also accepts --trace-out FILE / --metrics-out FILE /
 * --ledger FILE / --telemetry [--telemetry-interval-ms N] (or
 * SIEVE_TRACE / SIEVE_METRICS / SIEVE_LEDGER / SIEVE_TELEMETRY) to
 * record its own execution, and --log-level quiet|warn|info|debug
 * (or SIEVE_LOG_LEVEL). The introspection commands (runs,
 * perf-report, metrics-diff, trace-summary) never arm the layer:
 * they read its artifacts.
 */

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "common/thread_pool.hh"
#include "obs/ledger.hh"
#include "eval/experiment.hh"
#include "eval/render.hh"
#include "eval/report.hh"
#include "eval/streaming.hh"
#include "eval/suite_runner.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/sim_batch.hh"
#include "gpusim/trace_synth.hh"
#include "profiler/profilers.hh"
#include "testing/fault_injection.hh"
#include "sampling/pks.hh"
#include "sampling/random_sampler.hh"
#include "sampling/rep_traces.hh"
#include "sampling/sieve.hh"
#include "sampling/tbpoint.hh"
#include "serve/bench_serve.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/columnar.hh"
#include "trace/profile_io.hh"
#include "trace/shard_store.hh"
#include "trace/tier.hh"
#include "trace/sass_trace.hh"
#include "trace/workload_io.hh"
#include "trace/workload_stream.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace {

using namespace sieve;

/** Minimal argv parser: positionals plus --key[=| ]value options. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                std::string key = arg.substr(2);
                std::string value = "true";
                size_t eq = key.find('=');
                if (eq != std::string::npos) {
                    value = key.substr(eq + 1);
                    key = key.substr(0, eq);
                } else if (i + 1 < argc &&
                           std::string(argv[i + 1]).rfind("--", 0) !=
                               0 &&
                           needsValue(key)) {
                    value = argv[++i];
                }
                _options[key] = value;
            } else if (arg == "-o" && i + 1 < argc) {
                _options["out"] = argv[++i];
            } else {
                _positional.push_back(std::move(arg));
            }
        }
    }

    static bool
    needsValue(const std::string &key)
    {
        return key != "pks" && key != "pkp" && key != "by-name" &&
               key != "csv" && key != "smoke" && key != "stream" &&
               key != "content-seeded" && key != "telemetry" &&
               key != "strict" && key != "counters" &&
               key != "counters-json" && key != "allow-counter-drift" &&
               key != "ping-delay-for-tests";
    }

    const std::vector<std::string> &positional() const
    {
        return _positional;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = _options.find(key);
        return it == _options.end() ? fallback : it->second;
    }

    bool
    has(const std::string &key) const
    {
        return _options.count(key) > 0;
    }

    /** --key as a strict finite double, or `fallback` when absent. */
    double
    number(const std::string &key, double fallback) const
    {
        auto it = _options.find(key);
        if (it == _options.end())
            return fallback;
        double value = 0.0;
        NumericParse status = parseDouble(it->second, value);
        if (status != NumericParse::Ok)
            badValue(key, it->second, "a number", status);
        return value;
    }

    /** --key as a strict unsigned integer, or `fallback` when absent. */
    uint64_t
    count(const std::string &key, uint64_t fallback) const
    {
        auto it = _options.find(key);
        if (it == _options.end())
            return fallback;
        uint64_t value = 0;
        NumericParse status = parseUint64(it->second, value);
        if (status != NumericParse::Ok)
            badValue(key, it->second, "an unsigned integer", status);
        return value;
    }

  private:
    /** A malformed flag value is a usage error: fixed exit code 1
     *  with the cause, never an exception. */
    [[noreturn]] static void
    badValue(const std::string &key, const std::string &text,
             const char *expected, NumericParse status)
    {
        fatal("usage: --", key, " expects ", expected, ", got '", text,
              "' (", numericParseMessage(status),
              "); run `sieve` without arguments for the command list");
    }

    std::vector<std::string> _positional;
    std::map<std::string, std::string> _options;
};

gpu::ArchConfig
archFor(const std::string &name)
{
    if (name == "ampere")
        return gpu::ArchConfig::ampereRtx3080();
    if (name == "turing")
        return gpu::ArchConfig::turingRtx2080Ti();
    fatal("unknown architecture '", name, "' (ampere | turing)");
}

workloads::WorkloadSpec
specFor(const std::string &name)
{
    auto spec = workloads::findSpec(name);
    if (!spec)
        fatal("unknown workload '", name,
              "'; run `sieve list` for the registry");
    return *spec;
}

/**
 * Resolve a workload argument: a path to a saved .swl file loads it,
 * anything else is looked up in the Table I registry and generated.
 */
trace::Workload
resolveWorkload(const std::string &name)
{
    if (std::filesystem::exists(name))
        return trace::loadWorkloadFile(name);
    return workloads::generateWorkload(specFor(name));
}

int
cmdList()
{
    eval::Report report("Registered workloads (Table I)");
    report.setColumns({"suite", "workload", "#kernels",
                       "#invocations (paper)", "#generated"});
    for (const auto &spec : workloads::allSpecs()) {
        report.addSuiteRow(spec.suite,
                           {spec.suite, spec.name,
                            std::to_string(spec.numKernels),
                            std::to_string(spec.paperInvocations),
                            std::to_string(spec.generatedInvocations)});
    }
    report.print();
    return 0;
}

int
cmdProfile(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve profile <workload> [--pks] [-o FILE]");
    auto spec = specFor(args.positional()[0]);
    trace::Workload wl = workloads::generateWorkload(spec);

    CsvTable table = args.has("pks")
                         ? profiler::NsightProfiler().collect(wl)
                         : profiler::NvbitProfiler().collect(wl);

    std::string out = args.get(
        "out", spec.name + (args.has("pks") ? "_pks" : "_sieve") +
                   "_profile.csv");
    table.writeFile(out);
    std::printf("wrote %zu rows x %zu columns to %s\n",
                table.numRows(), table.numCols(), out.c_str());
    return 0;
}

/** Run the configured sampler; returns (result, predicted cycles). */
std::pair<sampling::SamplingResult, double>
runSampler(const std::string &method, const trace::Workload &wl,
           const gpu::WorkloadResult &gold, double theta)
{
    if (method == "sieve") {
        sampling::SieveSampler sampler({theta});
        auto result = sampler.sample(wl);
        double pred =
            sampler.predictCycles(result, wl, gold.perInvocation);
        return {std::move(result), pred};
    }
    if (method == "pks") {
        sampling::PksSampler sampler;
        auto result = sampler.sample(wl, gold.perInvocation);
        double pred = sampler.predictCycles(result, gold.perInvocation);
        return {std::move(result), pred};
    }
    if (method == "tbpoint") {
        sampling::TbPointSampler sampler;
        auto result = sampler.sample(wl);
        double pred = sampler.predictCycles(result, gold.perInvocation);
        return {std::move(result), pred};
    }
    if (method == "random") {
        sampling::RandomSampler sampler;
        auto result = sampler.sample(wl);
        double pred =
            sampler.predictCycles(result, wl, gold.perInvocation);
        return {std::move(result), pred};
    }
    fatal("unknown method '", method,
          "' (sieve | pks | tbpoint | random)");
}

/** Ingest budget: --ingest-budget-mb beats SIEVE_INGEST_BUDGET_MB. */
trace::IngestBudget
ingestFromArgs(const Args &args)
{
    trace::IngestBudget budget = trace::IngestBudget::fromEnv();
    if (args.has("ingest-budget-mb")) {
        budget.budgetBytes =
            static_cast<size_t>(
                args.count("ingest-budget-mb", 64)) *
            1024 * 1024;
    }
    return budget;
}

/** Streaming pipeline config from the common flags. */
eval::StreamConfig
streamConfigFromArgs(const Args &args)
{
    eval::StreamConfig cfg;
    cfg.sieve = {args.number("theta", 0.4)};
    cfg.budget = ingestFromArgs(args);
    cfg.arch = archFor(args.get("arch", "ampere"));
    return cfg;
}

/**
 * The streaming commands accept only .swl files (the point is to
 * never materialize the workload) and only the sieve method (the
 * others need golden results or resident feature matrices up front).
 */
std::string
streamPath(const Args &args)
{
    const std::string &path = args.positional()[0];
    if (!std::filesystem::exists(path))
        fatal("--stream expects a .swl workload file, got '", path,
              "' (run `sieve export` first)");
    if (args.get("method", "sieve") != "sieve")
        fatal("--stream supports only --method sieve");
    return path;
}

/** The representative-selection CSV, shared by both sample paths. */
CsvTable
repsTable(const sampling::WorkloadProfile &profile,
          const sampling::SamplingResult &result)
{
    CsvTable table({"stratum", "kernel", "invocation", "tier",
                    "members", "weight", "cta_size",
                    "instruction_count"});
    for (size_t s = 0; s < result.strata.size(); ++s) {
        const auto &stratum = result.strata[s];
        SIEVE_ASSERT(stratum.kernelId != sampling::Stratum::kNoKernel,
                     "sieve stratum without a kernel");
        const auto &kernel = profile.kernels[stratum.kernelId];
        size_t pos = static_cast<size_t>(
            std::lower_bound(kernel.members.begin(),
                             kernel.members.end(),
                             stratum.representative) -
            kernel.members.begin());
        SIEVE_ASSERT(pos < kernel.members.size() &&
                         kernel.members[pos] == stratum.representative,
                     "representative not in its kernel's members");
        table.addRow({
            std::to_string(s),
            profile.kernelNames[stratum.kernelId],
            std::to_string(stratum.representative),
            sampling::tierName(stratum.tier),
            std::to_string(stratum.members.size()),
            eval::Report::num(stratum.weight, 8),
            std::to_string(kernel.ctaSizes[pos]),
            std::to_string(kernel.instructions[pos]),
        });
    }
    return table;
}

int
cmdSample(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve sample <workload> [--method M] "
              "[--theta X] [--stream] [--ingest-budget-mb N] "
              "[-o FILE]");
    std::string method = args.get("method", "sieve");
    double theta = args.number("theta", 0.4);

    if (args.has("stream")) {
        // Out-of-core: profile + stratify windows of the .swl file;
        // rows and stdout are byte-identical to the resident path.
        eval::StreamSample sampled = unwrapOrFatal(eval::streamSample(
            streamPath(args), streamConfigFromArgs(args)));
        CsvTable table = repsTable(sampled.profile, sampled.result);
        std::string out = args.get(
            "out", sampled.profile.name + "_" + method + "_reps.csv");
        table.writeFile(out);
        std::printf(
            "%s selected %zu representatives for %s; wrote %s\n",
            method.c_str(), sampled.result.strata.size(),
            sampled.profile.name.c_str(), out.c_str());
        return 0;
    }

    trace::Workload wl = resolveWorkload(args.positional()[0]);
    gpu::HardwareExecutor hw(gpu::ArchConfig::ampereRtx3080());
    gpu::WorkloadResult gold = hw.runWorkload(wl);
    auto [result, predicted] = runSampler(method, wl, gold, theta);

    CsvTable table = eval::representativesCsv(wl, result);

    std::string out =
        args.get("out", wl.name() + "_" + method + "_reps.csv");
    table.writeFile(out);
    std::printf("%s selected %zu representatives for %s; wrote %s\n",
                method.c_str(), result.strata.size(),
                wl.name().c_str(), out.c_str());
    return 0;
}

/** The evaluation report, shared by both evaluate paths. */
void
printEvaluation(const std::string &method, const std::string &suite,
                const std::string &name,
                const sampling::MethodEvaluation &eval)
{
    eval::evaluationReport(method, suite, name, eval).print();
}

int
cmdEvaluate(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve evaluate <workload> [--method M] "
              "[--arch A] [--theta X] [--stream] "
              "[--ingest-budget-mb N] [--jobs N]");
    std::string method = args.get("method", "sieve");
    double theta = args.number("theta", 0.4);

    if (args.has("stream")) {
        // Out-of-core: two bounded passes over the .swl file (profile
        // + stratify, then the golden scoring scan). The report is
        // byte-identical to the resident path below on any workload
        // both can hold, at any --jobs value.
        ThreadPool pool(static_cast<size_t>(
            args.count("jobs", 0)));
        eval::StreamEvaluation ev =
            unwrapOrFatal(eval::streamEvaluate(
                streamPath(args), streamConfigFromArgs(args), &pool));
        printEvaluation(method, ev.profile.suite, ev.profile.name,
                        ev.eval);
        return 0;
    }

    trace::Workload wl = resolveWorkload(args.positional()[0]);
    gpu::HardwareExecutor hw(archFor(args.get("arch", "ampere")));
    gpu::WorkloadResult gold = hw.runWorkload(wl);
    auto [result, predicted] = runSampler(method, wl, gold, theta);
    sampling::MethodEvaluation eval =
        sampling::evaluate(result, predicted, gold.perInvocation);
    printEvaluation(method, wl.suite(), wl.name(), eval);
    return 0;
}

/** Tier budget: --trace-budget-mb beats SIEVE_TRACE_BUDGET_MB. */
trace::TierConfig
tierFromArgs(const Args &args)
{
    trace::TierConfig cfg = trace::TierConfig::fromEnv();
    if (args.has("trace-budget-mb")) {
        cfg.budgetBytes =
            static_cast<size_t>(
                args.count("trace-budget-mb", 64)) *
            1024 * 1024;
    }
    return cfg;
}

/** Write the tiered trace set to out_dir; returns total file bytes. */
uint64_t
exportTraces(const std::string &workload_name,
             const sampling::SamplingResult &result,
             const sampling::RepresentativeTraces &reps,
             const std::filesystem::path &out_dir)
{
    uint64_t bytes = 0;
    for (size_t s = 0; s < result.strata.size(); ++s) {
        trace::TraceHandle::Pin pin = reps.handle(s).pin();
        trace::KernelTrace kt = trace::toAos(*pin);
        std::filesystem::path file =
            out_dir /
            (workload_name + "_inv" +
             std::to_string(result.strata[s].representative) +
             ".trace");
        trace::writeTraceFile(kt, file.string());
        bytes += std::filesystem::file_size(file);
    }
    return bytes;
}

int
cmdTrace(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve trace <workload> [--out DIR] [--theta X] "
              "[--ctas N] [--trace-budget-mb N] [--stream] "
              "[--ingest-budget-mb N]");
    double theta = args.number("theta", 0.4);

    gpusim::TraceSynthOptions synth;
    synth.maxTracedCtas = args.count("ctas", 32);

    if (args.has("stream")) {
        // Out-of-core: stratify from the stream, then fetch only the
        // representative records in a second bounded pass. Same
        // files, same names, same stdout as the resident path.
        std::string path = streamPath(args);
        eval::StreamConfig cfg = streamConfigFromArgs(args);
        eval::StreamSample sampled =
            unwrapOrFatal(eval::streamSample(path, cfg));

        std::vector<size_t> rep_indexes;
        rep_indexes.reserve(sampled.result.strata.size());
        for (const auto &stratum : sampled.result.strata)
            rep_indexes.push_back(stratum.representative);
        std::vector<trace::KernelInvocation> records = unwrapOrFatal(
            eval::fetchInvocations(path, rep_indexes, cfg.budget));

        std::vector<sampling::RepresentativeTraces::RepInvocation>
            rep_invs;
        rep_invs.reserve(records.size());
        for (size_t s = 0; s < records.size(); ++s) {
            rep_invs.push_back(
                {sampled.profile
                     .kernelNames[sampled.result.strata[s].kernelId],
                 records[s]});
        }

        std::filesystem::path out_dir =
            args.get("out", sampled.profile.name + "_traces");
        std::filesystem::create_directories(out_dir);
        sampling::RepresentativeTraces reps(rep_invs, synth,
                                            tierFromArgs(args));
        uint64_t bytes = exportTraces(sampled.profile.name,
                                      sampled.result, reps, out_dir);
        std::printf("exported %zu traces (%.1f MB) to %s\n",
                    sampled.result.strata.size(),
                    static_cast<double>(bytes) / 1e6,
                    out_dir.string().c_str());
        return 0;
    }

    trace::Workload wl = resolveWorkload(args.positional()[0]);
    std::filesystem::path out_dir =
        args.get("out", wl.name() + "_traces");
    std::filesystem::create_directories(out_dir);
    sampling::SieveSampler sampler({theta});
    sampling::SamplingResult result = sampler.sample(wl);

    // The trace set lives in the tier pool while it is exported: only
    // the stratum being written is decoded, everything else stays a
    // compressed blob under the budget. toAos() of the pinned
    // columnar form is lossless, so the files are byte-identical to
    // the direct AoS export this replaced.
    sampling::RepresentativeTraces reps(wl, result, synth,
                                        tierFromArgs(args));
    uint64_t bytes = exportTraces(wl.name(), result, reps, out_dir);
    std::printf("exported %zu traces (%.1f MB) to %s\n",
                result.strata.size(),
                static_cast<double>(bytes) / 1e6,
                out_dir.string().c_str());
    return 0;
}

int
cmdTraceStats(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve trace-stats <workload>... [--theta X] "
              "[--ctas N] [--trace-budget-mb N] [--jobs N] [--csv] "
              "[-o FILE]");
    double theta = args.number("theta", 0.4);

    gpusim::TraceSynthOptions synth;
    synth.maxTracedCtas = args.count("ctas", 32);

    std::vector<workloads::WorkloadSpec> specs;
    specs.reserve(args.positional().size());
    for (const std::string &name : args.positional())
        specs.push_back(specFor(name));

    eval::ExperimentContext ctx;
    eval::SuiteRunner runner(
        ctx, {static_cast<size_t>(
                 args.count("jobs", 0))});
    std::vector<eval::WorkloadTraceStats> rows = runner.traceStats(
        specs, {theta}, synth, tierFromArgs(args));

    if (args.has("csv")) {
        CsvTable table = eval::traceStatsCsv(rows);
        if (args.has("out")) {
            table.writeFile(args.get("out", ""));
        } else {
            std::ostringstream os;
            table.write(os);
            std::fputs(os.str().c_str(), stdout);
        }
        return 0;
    }

    eval::Report report("Representative trace memory census");
    report.setColumns({"workload", "strata", "insts", "AoS",
                       "columnar", "blob", "B/inst", "dict", "hot",
                       "cold"});
    size_t total_aos = 0, total_columnar = 0, total_blob = 0;
    for (const auto &row : rows) {
        const auto &s = row.stats;
        total_aos += s.aosBytes;
        total_columnar += s.columnarBytes;
        total_blob += s.blobBytes;
        report.addSuiteRow(
            row.suite,
            {row.name, std::to_string(s.strata),
             eval::Report::count(static_cast<double>(s.instructions)),
             eval::Report::count(static_cast<double>(s.aosBytes)),
             eval::Report::count(
                 static_cast<double>(s.columnarBytes)),
             eval::Report::count(static_cast<double>(s.blobBytes)),
             eval::Report::num(s.bytesPerInstruction(), 3),
             std::to_string(s.dictionaryEntries),
             std::to_string(s.hotTraces),
             std::to_string(s.coldTraces)});
    }
    report.print();
    double aos = static_cast<double>(total_aos);
    std::printf("AoS %.1f MB -> columnar %.1f MB (%.1fx) -> "
                "compressed %.1f MB (%.1fx)\n",
                aos / 1e6,
                static_cast<double>(total_columnar) / 1e6,
                total_columnar > 0
                    ? aos / static_cast<double>(total_columnar)
                    : 0.0,
                static_cast<double>(total_blob) / 1e6,
                total_blob > 0
                    ? aos / static_cast<double>(total_blob)
                    : 0.0);
    return 0;
}

int
cmdShardStats(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve shard-stats <workload>... [--theta X] "
              "[--ctas N] [--shards N] [--dir D] [--content-seeded] "
              "[--trace-budget-mb N] [--csv] [-o FILE]");
    double theta = args.number("theta", 0.4);

    gpusim::TraceSynthOptions synth;
    synth.maxTracedCtas = args.count("ctas", 32);
    synth.contentSeeded = args.has("content-seeded");

    // The store lives where --dir points; without it, in a scratch
    // directory that is removed after the census.
    bool scratch = !args.has("dir");
    std::filesystem::path dir =
        scratch ? std::filesystem::temp_directory_path() /
                      ("sieve_shard_stats_" +
                       std::to_string(static_cast<unsigned long>(
                           ::getpid())))
                : std::filesystem::path(args.get("dir", ""));
    trace::ShardStoreConfig store_cfg;
    store_cfg.numShards =
        static_cast<size_t>(args.count("shards", 8));
    trace::ShardStore store = unwrapOrFatal(
        trace::ShardStore::tryCreate(dir.string(), store_cfg));

    // Route every workload's representative traces through the one
    // store; content-identical traces dedup at rest across workloads.
    size_t total_strata = 0;
    for (const std::string &name : args.positional()) {
        trace::Workload wl = resolveWorkload(name);
        sampling::SieveSampler sampler({theta});
        sampling::SamplingResult result = sampler.sample(wl);
        sampling::RepresentativeTraces reps(
            wl, result, synth, tierFromArgs(args), &store);
        total_strata += result.strata.size();
    }
    unwrapOrFatal(store.flushIndex());
    std::vector<trace::ShardStore::HealthIssue> issues =
        unwrapOrFatal(store.validate());

    std::vector<size_t> issue_count(store.numShards(), 0);
    for (const auto &issue : issues)
        ++issue_count[issue.shard];

    std::vector<trace::ShardStore::ShardInfo> info = store.shardInfo();
    uint64_t total_puts = 0;
    size_t total_blobs = 0, total_bytes = 0;
    for (const auto &s : info) {
        total_puts += s.puts;
        total_blobs += s.blobs;
        total_bytes += s.blobBytes;
    }

    if (args.has("csv")) {
        CsvTable table({"shard", "blobs", "blob_bytes", "puts",
                        "dedup_ratio", "issues"});
        for (const auto &s : info) {
            table.addRow({std::to_string(s.shard),
                          std::to_string(s.blobs),
                          std::to_string(s.blobBytes),
                          std::to_string(s.puts),
                          eval::Report::num(s.dedupRatio(), 3),
                          std::to_string(issue_count[s.shard])});
        }
        if (args.has("out")) {
            table.writeFile(args.get("out", ""));
        } else {
            std::ostringstream os;
            table.write(os);
            std::fputs(os.str().c_str(), stdout);
        }
    } else {
        eval::Report report("Shard store census: " + dir.string());
        report.setColumns({"shard", "blobs", "bytes", "puts", "dedup",
                           "health"});
        for (const auto &s : info) {
            report.addRow(
                {std::to_string(s.shard), std::to_string(s.blobs),
                 eval::Report::count(
                     static_cast<double>(s.blobBytes)),
                 std::to_string(s.puts),
                 eval::Report::times(s.dedupRatio()),
                 issue_count[s.shard] == 0
                     ? std::string("ok")
                     : std::to_string(issue_count[s.shard]) +
                           " issue(s)"});
        }
        report.print();
        std::printf("%llu logical puts over %zu workload(s) -> %zu "
                    "blobs at rest (%.2fx dedup, %.1f KB); index %s\n",
                    static_cast<unsigned long long>(total_puts),
                    args.positional().size(), total_blobs,
                    total_blobs > 0
                        ? static_cast<double>(total_puts) /
                              static_cast<double>(total_blobs)
                        : 1.0,
                    static_cast<double>(total_bytes) / 1e3,
                    issues.empty() ? "healthy" : "UNHEALTHY");
        SIEVE_ASSERT(total_strata == total_puts,
                     "census lost puts");
    }
    for (const auto &issue : issues) {
        std::printf("  shard %zu: %s\n", issue.shard,
                    issue.problem.c_str());
    }

    if (scratch)
        std::filesystem::remove_all(dir);
    return issues.empty() ? 0 : 1;
}

int
cmdExport(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve export <workload> [--cap N] [-o FILE]");
    const std::string &name = args.positional()[0];
    size_t cap =
        static_cast<size_t>(args.count("cap", 0));
    trace::Workload wl = [&] {
        if (cap == 0)
            return resolveWorkload(name);
        // An explicit cap overrides the registry's default 24k
        // invocation ceiling — how the out-of-core CI gate builds
        // its 10x-over-resident synthetic workload.
        auto spec = workloads::findSpec(name, cap);
        if (!spec)
            fatal("unknown workload '", name,
                  "'; run `sieve list` for the registry");
        return workloads::generateWorkload(*spec);
    }();
    std::string out = args.get("out", wl.name() + ".swl");
    trace::saveWorkloadFile(wl, out);
    std::printf("saved %s/%s (%zu kernels, %zu invocations) to %s\n",
                wl.suite().c_str(), wl.name().c_str(), wl.numKernels(),
                wl.numInvocations(), out.c_str());
    return 0;
}

/** Per-trace detail table for `sieve simulate` with one file. */
void
printSimResult(const trace::KernelTrace &kt,
               const gpusim::KernelSimResult &result)
{
    // The table itself is the shared renderer the serving layer also
    // ships; the volatile wall clock prints after it so deterministic
    // bytes and timing stay on separate lines.
    eval::simulationReport(kt, result).print();
    std::printf("wall time %.3f s\n", result.wallSeconds);
}

int
cmdSimulate(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve simulate <trace-file>... [--arch A] "
              "[--pkp] [--jobs N]");

    gpusim::GpuSimConfig cfg;
    cfg.pkpEnabled = args.has("pkp");
    gpusim::GpuSimulator sim(archFor(args.get("arch", "ampere")), cfg);

    if (args.positional().size() == 1) {
        trace::KernelTrace kt =
            trace::readTraceFile(args.positional()[0]);
        printSimResult(kt, sim.simulate(kt));
        return 0;
    }

    // Several trace files: the paper's farm-out deployment. Fan the
    // batch over the pool with failure isolation — a bad trace file
    // is quarantined and reported while the rest simulate — and
    // summarize one row per trace.
    ThreadPool pool(static_cast<size_t>(
        args.count("jobs", 0)));
    gpusim::IsolatedBatchSimResult batch =
        gpusim::simulateTraceFilesIsolated(sim, args.positional(),
                                           pool);

    eval::Report report("Simulation: " +
                        std::to_string(batch.results.size()) +
                        " traces, " + std::to_string(pool.numWorkers()) +
                        " jobs");
    report.setColumns({"trace", "insts", "est. cycles", "est. IPC",
                       "sim time"});
    double serial_seconds = 0.0, longest = 0.0;
    for (size_t i = 0; i < batch.results.size(); ++i) {
        std::string file = std::filesystem::path(args.positional()[i])
                               .filename()
                               .string();
        if (!batch.results[i]) {
            report.addRow({file, "-", "-", "-", "(quarantined)"});
            continue;
        }
        const gpusim::KernelSimResult &r = *batch.results[i];
        serial_seconds += r.wallSeconds;
        longest = std::max(longest, r.wallSeconds);
        report.addRow({
            file,
            eval::Report::count(
                static_cast<double>(r.instructionsSimulated)),
            eval::Report::count(r.estimatedKernelCycles),
            eval::Report::num(r.estimatedIpc),
            eval::Report::num(r.wallSeconds, 3) + " s",
        });
    }
    report.print();
    std::printf("batch wall time %.3f s (serial-cost model %.3f s, "
                "longest trace %.3f s)\n",
                batch.wallSeconds, serial_seconds, longest);
    if (!batch.quarantine.allOk()) {
        std::printf("%s\n",
                    batch.quarantine.toString(batch.results.size())
                        .c_str());
        return 1;
    }
    return 0;
}

int
cmdFuzzIngest(const Args &args)
{
    testing::FuzzOptions opts;
    opts.seed = args.count("seed", 20803);
    opts.mutationsPerFormat = static_cast<size_t>(
        args.count("mutations", 200));
    if (args.has("smoke"))
        opts.mutationsPerFormat =
            std::min<size_t>(opts.mutationsPerFormat, 50);
    opts.jobs =
        static_cast<size_t>(args.count("jobs", 0));

    testing::FuzzReport report = testing::runFuzzIngest(opts);
    std::printf("%s\n", report.summary().c_str());
    if (!report.ok()) {
        std::printf("fuzz-ingest FAILED: %zu case(s) accepted "
                    "invalid input or crashed (seed %llu)\n",
                    report.failures.size(),
                    static_cast<unsigned long long>(opts.seed));
        return 1;
    }
    return 0;
}

int
cmdTraceSummary(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve trace-summary <trace.json> [--by-name] "
              "[--counters] [--csv] [-o FILE]");
    const std::string &path = args.positional()[0];
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");

    std::string error;
    obs::TraceSummary summary =
        obs::summarizeTrace(in, args.has("by-name"), &error);
    if (!error.empty())
        fatal("malformed trace '", path, "': ", error);

    // Counter-track view: the telemetry timeline per track.
    if (args.has("counters")) {
        if (summary.tracks.empty())
            fatal("trace '", path,
                  "' has no counter tracks (run with --telemetry)");
        if (args.has("csv")) {
            CsvTable table(
                {"track", "samples", "min", "max", "last"});
            for (const auto &t : summary.tracks) {
                table.addRow({t.track, std::to_string(t.samples),
                              std::to_string(t.minValue),
                              std::to_string(t.maxValue),
                              std::to_string(t.lastValue)});
            }
            if (args.has("out")) {
                table.writeFile(args.get("out", ""));
            } else {
                std::ostringstream os;
                table.write(os);
                std::fputs(os.str().c_str(), stdout);
            }
            return 0;
        }
        eval::Report report("Counter tracks: " + path);
        report.setColumns({"track", "samples", "min", "max", "last"});
        for (const auto &t : summary.tracks) {
            report.addRow({t.track, std::to_string(t.samples),
                           std::to_string(t.minValue),
                           std::to_string(t.maxValue),
                           std::to_string(t.lastValue)});
        }
        report.print();
        std::printf("%llu counter samples over %zu tracks\n",
                    static_cast<unsigned long long>(
                        summary.counterSamples),
                    summary.tracks.size());
        return 0;
    }

    if (summary.events == 0)
        fatal("trace '", path,
              "' contains no spans (counter tracks only; see "
              "--counters)");

    if (args.has("csv")) {
        CsvTable table({"stage", "spans", "total_ms", "max_ms"});
        for (const auto &stage : summary.stages) {
            table.addRow({stage.stage, std::to_string(stage.spans),
                          eval::Report::num(stage.totalMs, 3),
                          eval::Report::num(stage.maxMs, 3)});
        }
        if (args.has("out")) {
            table.writeFile(args.get("out", ""));
        } else {
            std::ostringstream os;
            table.write(os);
            std::fputs(os.str().c_str(), stdout);
        }
        return 0;
    }

    eval::Report report("Trace summary: " + path);
    report.setColumns({args.has("by-name") ? "span" : "stage",
                       "spans", "total", "max"});
    for (const auto &stage : summary.stages) {
        report.addRow({stage.stage, std::to_string(stage.spans),
                       eval::Report::num(stage.totalMs, 3) + " ms",
                       eval::Report::num(stage.maxMs, 3) + " ms"});
    }
    report.print();
    // Stage totals exceed the wall clock whenever spans nest or run
    // concurrently; print the wall span so the table reads correctly.
    std::printf("%llu spans over %.3f ms of wall clock\n",
                static_cast<unsigned long long>(summary.events),
                summary.wallMs);
    if (summary.counterSamples > 0) {
        std::printf("plus %llu counter samples over %zu tracks "
                    "(--counters to view)\n",
                    static_cast<unsigned long long>(
                        summary.counterSamples),
                    summary.tracks.size());
    }
    return 0;
}

int
cmdMetricsDiff(const Args &args)
{
    if (args.positional().size() != 2)
        fatal("usage: sieve metrics-diff <a.json> <b.json>");

    auto load = [](const std::string &path) {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open metrics file '", path, "'");
        std::string error;
        auto counters = obs::parseStableCounters(in, &error);
        if (!error.empty())
            fatal("malformed metrics '", path, "': ", error);
        return counters;
    };
    auto a = load(args.positional()[0]);
    auto b = load(args.positional()[1]);

    // One merged walk reports missing keys and value mismatches in
    // name order.
    size_t differences = 0;
    auto report = [&](const std::string &name, const std::string &lhs,
                      const std::string &rhs) {
        std::printf("  %-40s %s != %s\n", name.c_str(), lhs.c_str(),
                    rhs.c_str());
        ++differences;
    };
    for (const auto &[name, value] : a) {
        auto it = b.find(name);
        if (it == b.end())
            report(name, std::to_string(value), "(missing)");
        else if (it->second != value)
            report(name, std::to_string(value),
                   std::to_string(it->second));
    }
    for (const auto &[name, value] : b) {
        if (!a.count(name))
            report(name, "(missing)", std::to_string(value));
    }

    if (differences > 0) {
        std::printf("%zu stable counter(s) differ between %s and %s\n",
                    differences, args.positional()[0].c_str(),
                    args.positional()[1].c_str());
        return 1;
    }
    std::printf("%zu stable counters identical\n", a.size());
    return 0;
}

/** Ledger path: --ledger flag, SIEVE_LEDGER env, else runs.jsonl. */
std::string
ledgerPath(const Args &args)
{
    std::string path = args.get("ledger", "");
    if (path.empty())
        if (const char *env = std::getenv("SIEVE_LEDGER"))
            path = env;
    return path.empty() ? "runs.jsonl" : path;
}

/** Resolve a run index; negative counts from the end (-1 = latest). */
size_t
resolveRunIndex(const std::string &text, size_t count)
{
    char *end = nullptr;
    long idx = std::strtol(text.c_str(), &end, 10);
    if (!end || *end != '\0')
        fatal("run index must be an integer, got '", text, "'");
    long resolved = idx < 0 ? static_cast<long>(count) + idx : idx;
    if (resolved < 0 || resolved >= static_cast<long>(count))
        fatal("run index ", text, " out of range (ledger holds ",
              count, " run(s))");
    return static_cast<size_t>(resolved);
}

std::string
describeRun(const obs::RunManifest &run, size_t limit)
{
    std::string text = run.command;
    for (const std::string &arg : run.argv) {
        text.push_back(' ');
        text += arg;
    }
    if (text.size() > limit) {
        text.resize(limit - 3);
        text += "...";
    }
    return text;
}

int
cmdRunsList(const Args &args, const std::string &path,
            const obs::LedgerReadResult &ledger)
{
    eval::Report report("Run ledger: " + path);
    report.setColumns({"#", "invocation", "jobs", "wall", "peak rss",
                       "counters", "samples"});
    for (size_t i = 0; i < ledger.runs.size(); ++i) {
        const obs::RunManifest &run = ledger.runs[i];
        report.addRow(
            {std::to_string(i), describeRun(run, 44),
             std::to_string(run.jobs),
             eval::Report::num(run.wallMs, 1) + " ms",
             std::to_string(run.maxRssKb) + " KB",
             std::to_string(run.counters.size()),
             std::to_string(run.telemetrySamples)});
    }
    report.print();
    std::printf("%zu run(s), %llu unparseable line(s)\n",
                ledger.runs.size(),
                static_cast<unsigned long long>(ledger.skippedLines));
    return args.has("strict") && ledger.skippedLines > 0 ? 1 : 0;
}

int
cmdRunsShow(const Args &args, const obs::LedgerReadResult &ledger)
{
    std::string which = args.positional().size() > 1
                            ? args.positional()[1]
                            : std::string("-1");
    const obs::RunManifest &run =
        ledger.runs[resolveRunIndex(which, ledger.runs.size())];

    // parseStableCounters-compatible export, so the ledger plugs
    // straight into `sieve metrics-diff` (the CI jobs-invariance
    // gate runs it across ledger entries).
    if (args.has("counters-json")) {
        std::printf("{\n  \"schema\": 1,\n  \"tool\": \"sieve\",\n"
                    "  \"counters\": {\n");
        bool first = true;
        for (const auto &[name, value] : run.counters) {
            if (!first)
                std::printf(",\n");
            first = false;
            std::printf("    \"%s\": %llu", name.c_str(),
                        static_cast<unsigned long long>(value));
        }
        std::printf("%s  },\n  \"volatile\": {}\n}\n",
                    first ? "" : "\n");
        return 0;
    }

    eval::Report report("Run manifest");
    report.setColumns({"field", "value"});
    report.addRow({"invocation", describeRun(run, 60)});
    report.addRow({"jobs", std::to_string(run.jobs)});
    report.addRow({"started_unix_ms",
                   std::to_string(run.startedUnixMs)});
    report.addRow({"wall", eval::Report::num(run.wallMs, 1) + " ms"});
    report.addRow({"peak rss",
                   std::to_string(run.maxRssKb) + " KB"});
    report.addRow({"telemetry samples",
                   std::to_string(run.telemetrySamples)});
    report.print();

    if (!run.counters.empty()) {
        eval::Report counters("Stable counters");
        counters.setColumns({"counter", "value"});
        for (const auto &[name, value] : run.counters)
            counters.addRow({name, std::to_string(value)});
        counters.print();
    }
    if (!run.histograms.empty()) {
        eval::Report hist("Latency histograms (ns)");
        hist.setColumns(
            {"histogram", "count", "p50", "p90", "p95", "p99"});
        for (const auto &[name, h] : run.histograms) {
            hist.addRow({name, std::to_string(h.count),
                         eval::Report::count(h.p50),
                         eval::Report::count(h.p90),
                         eval::Report::count(h.p95),
                         eval::Report::count(h.p99)});
        }
        hist.print();
    }
    return 0;
}

int
cmdRunsDiff(const Args &args, const obs::LedgerReadResult &ledger)
{
    if (args.positional().size() < 3)
        fatal("usage: sieve runs diff <a> <b> [--ledger FILE]");
    const obs::RunManifest &a = ledger.runs[resolveRunIndex(
        args.positional()[1], ledger.runs.size())];
    const obs::RunManifest &b = ledger.runs[resolveRunIndex(
        args.positional()[2], ledger.runs.size())];

    size_t differences = 0;
    auto report = [&](const std::string &name, const std::string &lhs,
                      const std::string &rhs) {
        std::printf("  %-40s %s != %s\n", name.c_str(), lhs.c_str(),
                    rhs.c_str());
        ++differences;
    };
    for (const auto &[name, value] : a.counters) {
        auto it = b.counters.find(name);
        if (it == b.counters.end())
            report(name, std::to_string(value), "(missing)");
        else if (it->second != value)
            report(name, std::to_string(value),
                   std::to_string(it->second));
    }
    for (const auto &[name, value] : b.counters) {
        if (!a.counters.count(name))
            report(name, "(missing)", std::to_string(value));
    }
    if (differences > 0)
        std::printf("%zu stable counter(s) differ\n", differences);
    else
        std::printf("%zu stable counters identical\n",
                    a.counters.size());

    // Volatile deltas are informational: they never fail the diff.
    auto pct = [](double from, double to) {
        return from > 0.0 ? (to / from - 1.0) * 100.0 : 0.0;
    };
    std::printf("  wall %.1f ms -> %.1f ms (%+.1f%%)\n", a.wallMs,
                b.wallMs, pct(a.wallMs, b.wallMs));
    std::printf("  peak rss %lld KB -> %lld KB (%+.1f%%)\n",
                static_cast<long long>(a.maxRssKb),
                static_cast<long long>(b.maxRssKb),
                pct(static_cast<double>(a.maxRssKb),
                    static_cast<double>(b.maxRssKb)));
    for (const auto &[name, ha] : a.histograms) {
        auto it = b.histograms.find(name);
        if (it == b.histograms.end())
            continue;
        std::printf("  p95(%s) %.0f ns -> %.0f ns (%+.1f%%)\n",
                    name.c_str(), ha.p95, it->second.p95,
                    pct(ha.p95, it->second.p95));
    }
    return differences > 0 ? 1 : 0;
}

int
cmdRunsRegress(const Args &args, const std::string &path,
               const obs::LedgerReadResult &ledger)
{
    obs::RegressOptions opts;
    opts.window = static_cast<size_t>(
        args.count("window", 5));
    opts.maxLatencyPct = args.number("max-latency-pct", 10.0);
    opts.maxFootprintPct =
        args.number("max-footprint-pct", 10.0);
    opts.maxWallPct = args.number("max-wall-pct", 0.0);
    opts.allowCounterDrift = args.has("allow-counter-drift");

    const obs::RunManifest &candidate = ledger.runs.back();
    std::string fingerprint = obs::runFingerprint(candidate);
    std::vector<obs::RunManifest> baselines;
    for (size_t i = 0; i + 1 < ledger.runs.size(); ++i) {
        if (obs::runFingerprint(ledger.runs[i]) == fingerprint)
            baselines.push_back(ledger.runs[i]);
    }
    if (baselines.empty()) {
        std::printf("no baseline runs in %s match '%s'; nothing to "
                    "compare\n",
                    path.c_str(), describeRun(candidate, 60).c_str());
        return 0;
    }

    std::vector<obs::Regression> regressions =
        obs::findRegressions(candidate, baselines, opts);
    if (regressions.empty()) {
        std::printf("no regressions: '%s' vs %zu baseline run(s) "
                    "(latency +%.1f%%, footprint +%.1f%%)\n",
                    describeRun(candidate, 60).c_str(),
                    baselines.size(), opts.maxLatencyPct,
                    opts.maxFootprintPct);
        return 0;
    }

    eval::Report report("Regressions vs " +
                        std::to_string(baselines.size()) +
                        " baseline run(s)");
    report.setColumns({"metric", "candidate", "baseline", "delta"});
    for (const auto &r : regressions) {
        report.addRow({r.metric, eval::Report::count(r.candidate),
                       eval::Report::count(r.baseline),
                       eval::Report::percent(r.deltaPct / 100.0, 1)});
    }
    report.print();
    std::printf("%zu regression(s) beyond thresholds\n",
                regressions.size());
    return 1;
}

int
cmdRuns(const Args &args)
{
    if (args.positional().empty())
        fatal("usage: sieve runs <list|show|diff|regress> "
              "[--ledger FILE]");
    const std::string &sub = args.positional()[0];
    std::string path = ledgerPath(args);
    obs::LedgerReadResult ledger;
    std::string error;
    if (!obs::readRunLedgerFile(path, &ledger, &error))
        fatal(error);
    if (ledger.runs.empty() && sub != "list")
        fatal("ledger '", path, "' holds no parseable runs");

    if (sub == "list")
        return cmdRunsList(args, path, ledger);
    if (sub == "show")
        return cmdRunsShow(args, ledger);
    if (sub == "diff")
        return cmdRunsDiff(args, ledger);
    if (sub == "regress")
        return cmdRunsRegress(args, path, ledger);
    fatal("unknown runs subcommand '", sub,
          "' (list | show | diff | regress)");
}

/** Numeric-aware compare so BENCH_PR2 < BENCH_PR4 < BENCH_PR10. */
bool
naturalLess(const std::string &a, const std::string &b)
{
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (std::isdigit(static_cast<unsigned char>(a[i])) &&
            std::isdigit(static_cast<unsigned char>(b[j]))) {
            size_t i0 = i, j0 = j;
            while (i < a.size() &&
                   std::isdigit(static_cast<unsigned char>(a[i])))
                ++i;
            while (j < b.size() &&
                   std::isdigit(static_cast<unsigned char>(b[j])))
                ++j;
            std::string_view da(a.data() + i0, i - i0);
            std::string_view db(b.data() + j0, j - j0);
            uint64_t na = 0, nb = 0;
            if (parseUint64(da, na) != NumericParse::Ok ||
                parseUint64(db, nb) != NumericParse::Ok) {
                // Beyond uint64: the longer digit run is larger.
                if (da.size() != db.size())
                    return da.size() < db.size();
                if (da != db)
                    return da < db;
            } else if (na != nb) {
                return na < nb;
            }
        } else {
            if (a[i] != b[j])
                return a[i] < b[j];
            ++i;
            ++j;
        }
    }
    return a.size() < b.size();
}

int
cmdPerfReport(const Args &args)
{
    // Explicit files, or every BENCH_*.json in the working directory
    // (excluding the history itself).
    std::vector<std::string> files = args.positional();
    if (files.empty()) {
        for (const auto &entry :
             std::filesystem::directory_iterator(".")) {
            std::string name = entry.path().filename().string();
            if (name.rfind("BENCH_", 0) == 0 &&
                name.size() > 5 + 5 &&
                name.compare(name.size() - 5, 5, ".json") == 0 &&
                name.rfind("BENCH_HISTORY", 0) != 0)
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end(), naturalLess);
    }
    if (files.empty())
        fatal("no BENCH_*.json snapshots found (pass files "
              "explicitly or run scripts/perf.sh)");

    std::vector<obs::BenchSnapshot> snapshots;
    for (const std::string &file : files) {
        std::ifstream in(file);
        if (!in)
            fatal("cannot open bench file '", file, "'");
        obs::BenchSnapshot snap;
        std::string error;
        if (!obs::parseBenchSnapshot(
                in, std::filesystem::path(file).stem().string(),
                &snap, &error))
            fatal("malformed bench file '", file, "': ", error);
        snapshots.push_back(std::move(snap));
    }

    std::string out = args.get("out", "BENCH_HISTORY.jsonl");
    std::ofstream os(out);
    if (!os)
        fatal("cannot write '", out, "'");
    obs::writeBenchHistory(os, snapshots);

    // Per-op median trajectory across snapshots, oldest to newest,
    // with the delta between the two most recent points.
    std::vector<std::string> ops;
    for (const auto &snap : snapshots)
        for (const auto &r : snap.ops)
            if (std::find(ops.begin(), ops.end(), r.op) == ops.end())
                ops.push_back(r.op);

    eval::Report report("Bench history: " +
                        std::to_string(snapshots.size()) +
                        " snapshots");
    std::vector<std::string> columns = {"op"};
    for (const auto &snap : snapshots)
        columns.push_back(snap.label);
    columns.push_back("delta");
    report.setColumns(columns);

    for (const std::string &op : ops) {
        std::vector<std::string> row = {op};
        std::vector<double> medians;
        for (const auto &snap : snapshots) {
            auto it = std::find_if(
                snap.ops.begin(), snap.ops.end(),
                [&](const obs::BenchOpRecord &r) {
                    return r.op == op;
                });
            if (it == snap.ops.end()) {
                row.push_back("-");
            } else {
                row.push_back(eval::Report::count(it->medianNs));
                medians.push_back(it->medianNs);
            }
        }
        if (medians.size() >= 2 && medians[medians.size() - 2] > 0) {
            double delta = (medians.back() /
                                medians[medians.size() - 2] -
                            1.0) *
                           100.0;
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%+.1f%%", delta);
            row.push_back(buf);
        } else {
            row.push_back("-");
        }
        report.addRow(row);
    }
    report.print();
    std::printf("wrote %zu snapshot(s) to %s\n", snapshots.size(),
                out.c_str());
    return 0;
}

int
cmdServe(const Args &args)
{
    serve::ServerConfig config;
    config.socketPath = args.get("socket", "");
    if (config.socketPath.empty()) {
        fatal("usage: sieve serve --socket PATH [--jobs N] "
              "[--max-queue N] [--quota N]");
    }
    config.jobs = args.count("jobs", 0);
    config.maxQueue = args.count("max-queue", 64);
    config.perClientQuota = args.count("quota", 8);
    config.pingDelayForTests = args.has("ping-delay-for-tests");
    serve::Server server(config);
    unwrapOrFatal(server.start());
    serve::installShutdownSignalHandlers(server);
    std::fprintf(stderr, "sieved listening on %s\n",
                 config.socketPath.c_str());
    server.run();
    return 0;
}

int
cmdCall(const Args &args)
{
    const std::vector<std::string> &pos = args.positional();
    std::string socket = args.get("socket", "");
    if (pos.empty() || socket.empty()) {
        fatal("usage: sieve call <kind> [args...] --socket PATH "
              "[--timeout-ms N]\n"
              "  ping [TEXT]\n"
              "  stats\n"
              "  sample <workload> <method> <theta> <cap>\n"
              "  evaluate <workload> <method> <arch> <theta> <cap>\n"
              "  simulate <arch> <pkp 0|1> <trace-file>\n"
              "  trace-stats <theta> <ctas> <budget-mb> <cap> "
              "<workload>...");
    }

    const std::string &kindName = pos[0];
    serve::RequestKind kind = serve::RequestKind::Ping;
    std::string payload;
    auto requireArgs = [&](size_t count, const char *shape) {
        if (pos.size() != count + 1)
            fatal("sieve call ", kindName, " expects: ", shape);
    };
    if (kindName == "ping") {
        kind = serve::RequestKind::Ping;
        payload = pos.size() > 1 ? pos[1] : "";
    } else if (kindName == "stats") {
        kind = serve::RequestKind::Stats;
        requireArgs(0, "(no arguments)");
    } else if (kindName == "sample") {
        kind = serve::RequestKind::Sample;
        requireArgs(4, "<workload> <method> <theta> <cap>");
        payload = serve::encodeFields({pos[1], pos[2], pos[3],
                                       pos[4]});
    } else if (kindName == "evaluate") {
        kind = serve::RequestKind::Evaluate;
        requireArgs(5, "<workload> <method> <arch> <theta> <cap>");
        payload = serve::encodeFields({pos[1], pos[2], pos[3],
                                       pos[4], pos[5]});
    } else if (kindName == "simulate") {
        kind = serve::RequestKind::Simulate;
        requireArgs(3, "<arch> <pkp 0|1> <trace-file>");
        std::ifstream trace(pos[3], std::ios::binary);
        if (!trace)
            fatal("cannot read trace file '", pos[3], "'");
        std::ostringstream bytes;
        bytes << trace.rdbuf();
        payload = serve::encodeFields({pos[1], pos[2], bytes.str()});
    } else if (kindName == "trace-stats") {
        kind = serve::RequestKind::TraceStats;
        if (pos.size() < 6) {
            fatal("sieve call trace-stats expects: <theta> <ctas> "
                  "<budget-mb> <cap> <workload>...");
        }
        payload = serve::encodeFields(
            {pos.begin() + 1, pos.end()});
    } else {
        fatal("unknown request kind '", kindName,
              "' (ping | stats | sample | evaluate | simulate | "
              "trace-stats)");
    }

    serve::ServeClient client =
        unwrapOrFatal(serve::ServeClient::connect(socket));
    client.setReceiveTimeoutMs(static_cast<int>(
        args.count("timeout-ms", 60000)));
    serve::ServeClient::Response reply =
        unwrapOrFatal(client.call(kind, payload));
    if (reply.status == serve::ResponseStatus::Ok) {
        std::fwrite(reply.payload.data(), 1, reply.payload.size(),
                    stdout);
        return 0;
    }
    Expected<serve::WireError> decoded =
        serve::decodeError(reply.payload);
    std::fprintf(
        stderr, "%s%s\n",
        reply.status == serve::ResponseStatus::ShuttingDown
            ? "server shutting down: "
            : "",
        decoded.ok()
            ? decoded.value().error.toString().c_str()
            : "server sent an undecodable error payload");
    return 1;
}

int
cmdBenchServe(const Args &args)
{
    serve::BenchServeOptions opts;
    opts.connections = args.count("connections", 4);
    opts.requests = args.count("requests", 25);
    opts.jobs = args.count("jobs", 0);
    opts.smoke = args.has("smoke");
    opts.out = args.get("out", "BENCH_PR10.json");
    opts.socketPath = args.get("socket", "");
    return serve::runBenchServe(opts);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sieve <command> [args]\n"
        "  list                           registry of Table I workloads\n"
        "  profile <workload> [--pks]     write a profile CSV\n"
        "  sample <workload> [--method M] select representatives\n"
        "  evaluate <workload> [...]      error/speedup vs golden run\n"
        "  trace <workload> [--out DIR]   export representative traces\n"
        "  export <workload> [-o FILE]    save a workload as .swl\n"
        "  simulate <trace>... [--pkp]    cycle-level simulation\n"
        "  trace-summary <trace.json>     per-stage wall-clock table\n"
        "  trace-stats <workload>...      trace memory census "
        "(bytes,\n"
        "                                 tiers; --trace-budget-mb N)\n"
        "  shard-stats <workload>...      sharded trace-store census\n"
        "                                 (blobs, dedup at rest, index\n"
        "                                 health; --shards N --dir D)\n"
        "  metrics-diff <a.json> <b.json> compare stable counters\n"
        "  fuzz-ingest [--seed N] [--mutations N] [--smoke] [--jobs N]\n"
        "                                 seeded ingestion fuzz sweep;\n"
        "                                 exit 1 on any accepted-but-\n"
        "                                 invalid parse or crash\n"
        "  runs list [--strict]           show the run ledger\n"
        "  runs show [IDX] [--counters-json]\n"
        "                                 one manifest (IDX < 0 from "
        "end)\n"
        "  runs diff <a> <b>              compare two ledger entries\n"
        "  runs regress [--window N] [--max-latency-pct X]\n"
        "               [--max-footprint-pct X] [--max-wall-pct X]\n"
        "               [--allow-counter-drift]\n"
        "                                 exit 1 when the latest run\n"
        "                                 regresses vs its baselines\n"
        "  serve --socket PATH [--jobs N] [--max-queue N] "
        "[--quota N]\n"
        "                                 run sieved on an AF_UNIX "
        "socket\n"
        "                                 (SIGTERM drains "
        "gracefully)\n"
        "  call <kind> [args...] --socket PATH\n"
        "                                 one request against a "
        "running\n"
        "                                 sieved; Ok payload -> "
        "stdout\n"
        "  bench-serve [--connections N] [--requests N] [--jobs N]\n"
        "              [--smoke] [-o FILE]\n"
        "                                 closed-loop serving bench "
        "->\n"
        "                                 BENCH_PR10.json\n"
        "  perf-report [BENCH...] [--out F]\n"
        "                                 consolidate BENCH_*.json "
        "into\n"
        "                                 BENCH_HISTORY.jsonl\n"
        "global options (all commands):\n"
        "  --trace-out FILE    Chrome trace of this run "
        "(env: SIEVE_TRACE)\n"
        "  --metrics-out FILE  metrics JSON/CSV (env: SIEVE_METRICS)\n"
        "  --ledger FILE       append a run manifest at exit "
        "(env: SIEVE_LEDGER)\n"
        "  --telemetry         sample counter tracks into the trace\n"
        "                      (needs --trace-out; env: "
        "SIEVE_TELEMETRY)\n"
        "  --telemetry-interval-ms N  sampling period, default 25\n"
        "  --log-level L       quiet|warn|info|debug "
        "(env: SIEVE_LOG_LEVEL)\n"
        "streaming options (sample / evaluate / trace on .swl "
        "files):\n"
        "  --stream                out-of-core windowed ingestion\n"
        "  --ingest-budget-mb N    window memory bound "
        "(env: SIEVE_INGEST_BUDGET_MB)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    std::string command = argv[1];
    Args args(argc, argv);

    // Arm observability for every command: env first, then explicit
    // flags (later config wins per field).
    if (args.has("log-level")) {
        std::string value = args.get("log-level", "");
        auto level = parseLogLevel(value);
        if (!level)
            fatal("--log-level expects quiet|warn|info|debug, got '",
                  value, "'");
        setLogLevel(*level);
    }
    // Introspection commands read observability artifacts; arming
    // the layer for them would write the files they are reading
    // (appending a `runs list` manifest to the ledger it lists).
    bool introspection = command == "runs" ||
                         command == "perf-report" ||
                         command == "metrics-diff" ||
                         command == "trace-summary";
    if (!introspection) {
        std::vector<std::string> argv_vec(argv + 1, argv + argc);
        obs::setRunContext("sieve", std::move(argv_vec),
                           static_cast<int>(
                               args.count("jobs", 0)));
        obs::configureObsFromEnv();
        if (args.has("trace-out") || args.has("metrics-out") ||
            args.has("ledger") || args.has("telemetry")) {
            obs::ObsOptions obs_opts;
            obs_opts.traceOut = args.get("trace-out", "");
            obs_opts.metricsOut = args.get("metrics-out", "");
            obs_opts.ledgerOut = args.get("ledger", "");
            obs_opts.telemetry = args.has("telemetry");
            obs_opts.telemetryIntervalMs =
                args.count("telemetry-interval-ms", 25);
            obs::configureObs(obs_opts);
        }
    }

    if (command == "list")
        return cmdList();
    if (command == "profile")
        return cmdProfile(args);
    if (command == "sample")
        return cmdSample(args);
    if (command == "evaluate")
        return cmdEvaluate(args);
    if (command == "trace")
        return cmdTrace(args);
    if (command == "export")
        return cmdExport(args);
    if (command == "simulate")
        return cmdSimulate(args);
    if (command == "trace-summary")
        return cmdTraceSummary(args);
    if (command == "trace-stats")
        return cmdTraceStats(args);
    if (command == "shard-stats")
        return cmdShardStats(args);
    if (command == "metrics-diff")
        return cmdMetricsDiff(args);
    if (command == "fuzz-ingest")
        return cmdFuzzIngest(args);
    if (command == "runs")
        return cmdRuns(args);
    if (command == "serve")
        return cmdServe(args);
    if (command == "call")
        return cmdCall(args);
    if (command == "bench-serve")
        return cmdBenchServe(args);
    if (command == "perf-report")
        return cmdPerfReport(args);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
}
