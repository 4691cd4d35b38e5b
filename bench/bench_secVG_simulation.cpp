/**
 * @file
 * Section V-G reproduction: "Simulation".
 *
 * The paper's endgame: export SASS traces of only the Sieve-selected
 * kernel invocations as plain text files, then simulate them with a
 * trace-driven simulator (Accel-sim there, this repo's cycle-level
 * gpusim here). Because each representative is an independent trace
 * file, simulation parallelizes trivially — and this bench *measures*
 * that claim instead of modelling it: each workload's trace batch is
 * simulated twice, once on a one-worker pool (measured serial wall
 * time) and once fanned out over `--jobs` workers (measured parallel
 * wall time). The longest single trace — the paper's modeled
 * parallel-time lower bound — is kept as a separate column so the
 * measured time can be compared against it.
 *
 * For each studied workload this bench reports: number of exported
 * traces, total trace size, the simulation-predicted application
 * cycles versus the golden reference, the measured serial and
 * parallel simulation wall times, and the modeled bound. Expected
 * shape: with enough cores the measured parallel time approaches the
 * modeled bound from above, and the simulation-based prediction lands
 * within a simulator-fidelity factor of the golden reference while
 * preserving cross-workload ordering.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "eval/cli.hh"
#include "eval/experiment.hh"
#include "eval/report.hh"
#include "eval/suite_runner.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/sim_batch.hh"
#include "gpusim/trace_synth.hh"
#include "sampling/sieve.hh"
#include "stats/weighted.hh"
#include "trace/sass_trace.hh"
#include "workloads/suites.hh"

int
main(int argc, char **argv)
{
    using namespace sieve;
    namespace fs = std::filesystem;

    eval::BenchOptions opts = eval::parseBenchArgs(
        argc, argv, "bench_secVG_simulation [workload...]");

    // A representative subset keeps this bench to seconds; any
    // workload name from Table I works as a positional override.
    std::vector<std::string> studied = opts.positional;
    if (studied.empty())
        studied = {"gru", "gms", "lmc", "spt"};

    std::vector<workloads::WorkloadSpec> specs;
    for (const auto &name : studied) {
        auto spec = workloads::findSpec(name);
        if (!spec)
            fatal("unknown workload '", name, "'");
        specs.push_back(*spec);
    }

    fs::path trace_dir =
        fs::temp_directory_path() / "sieve_secVG_traces";
    fs::create_directories(trace_dir);

    eval::ExperimentContext ctx;
    eval::SuiteRunner runner(ctx, {opts.jobs});
    gpusim::GpuSimulator simulator(gpu::ArchConfig::ampereRtx3080());

    eval::Report report("Section V-G: trace export + detailed "
                        "simulation of Sieve representatives");
    report.setColumns({"workload", "traces", "distinct", "trace MB",
                       "sim-predicted cycles", "golden cycles",
                       "ratio", "serial sim", "parallel sim",
                       "memoized sim", "modeled bound"});

    // Warm the workload/golden caches in parallel up front so the
    // timed simulation passes below measure simulation only.
    runner.forEach(
        specs,
        [&](const workloads::WorkloadSpec &spec) {
            ctx.workload(spec);
            ctx.golden(spec);
            return 0;
        },
        [](const workloads::WorkloadSpec &, int) {});

    // The timed passes run one workload at a time: the parallel pass
    // needs the whole pool to itself for its wall time to mean
    // anything.
    ThreadPool serial_pool(1);
    for (const auto &spec : specs) {
        const trace::Workload &wl = ctx.workload(spec);
        const gpu::WorkloadResult &gold = ctx.golden(spec);

        sampling::SieveSampler sieve;
        sampling::SamplingResult result = sieve.sample(wl);

        // 1. Export one plain-text trace file per representative.
        // 8 traced CTAs per invocation keep this bench to seconds;
        // raise for higher-fidelity studies.
        gpusim::TraceSynthOptions synth;
        synth.maxTracedCtas = 8;
        uint64_t trace_bytes = 0;
        std::vector<std::string> files;
        for (const auto &stratum : result.strata) {
            trace::KernelTrace kt = gpusim::synthesizeTrace(
                wl, stratum.representative, synth);
            fs::path file =
                trace_dir / (spec.name + "_inv" +
                             std::to_string(stratum.representative) +
                             ".trace");
            trace::writeTraceFile(kt, file.string());
            trace_bytes += fs::file_size(file);
            files.push_back(file.string());
        }

        // 2. Simulate the exported batch three ways: measured serial
        // (one worker), measured parallel (the shared pool), and
        // memoized (content-digest cache, fresh per workload). The
        // per-trace results are identical across all three; only the
        // wall time moves. Sieve representatives are distinct
        // invocations with per-invocation trace noise, so the
        // distinct column usually equals the trace count here — the
        // cache's dedup win shows up on golden-style batches of
        // content-identical invocations (see the SimCache_ tests).
        gpusim::BatchSimResult serial =
            gpusim::simulateTraceFiles(simulator, files, serial_pool);
        gpusim::BatchSimResult parallel = gpusim::simulateTraceFiles(
            simulator, files, runner.pool());
        gpusim::SimCache cache(simulator);
        gpusim::BatchSimResult memoized =
            gpusim::simulateTraceFilesCached(cache, files,
                                             runner.pool());

        // 3. Sieve projection from simulated representative IPCs.
        std::vector<double> ipcs;
        std::vector<double> weights;
        for (size_t i = 0; i < parallel.results.size(); ++i) {
            ipcs.push_back(parallel.results[i].estimatedIpc);
            weights.push_back(result.strata[i].weight);
        }
        double ipc = stats::weightedHarmonicMean(ipcs, weights);
        double predicted =
            static_cast<double>(wl.totalInstructions()) / ipc;

        report.addRow({
            spec.name,
            std::to_string(files.size()),
            std::to_string(memoized.uniqueTraces),
            eval::Report::num(
                static_cast<double>(trace_bytes) / 1e6, 1),
            eval::Report::count(predicted),
            eval::Report::count(gold.totalCycles),
            eval::Report::num(predicted / gold.totalCycles, 2),
            eval::Report::num(serial.wallSeconds, 2) + " s",
            eval::Report::num(parallel.wallSeconds, 3) + " s",
            eval::Report::num(memoized.wallSeconds, 3) + " s",
            eval::Report::num(parallel.criticalPathSeconds(), 3) +
                " s",
        });
    }
    report.print();

    std::printf("\nSerial, parallel, and memoized columns are measured "
                "wall times over the same exported trace files "
                "(jobs=%zu); the modeled bound is the longest single "
                "trace, which the parallel time can only approach from "
                "above. The distinct column counts content-digest-"
                "unique traces (the memoized pass simulates only "
                "those).\n"
                "Traces are CTA-sampled (<= 32 distinct CTAs per "
                "invocation, replication recorded in-file), matching "
                "the paper's practice of keeping per-invocation trace "
                "files small enough to farm out one-per-core.\n",
                runner.jobs());

    fs::remove_all(trace_dir);
    return 0;
}
