#include "harness.hh"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

/**
 * End-to-end metrics, printed by every untraced run. Times are process
 * CPU time (see cpuNs): on a host whose CPUs other guests share, wall
 * time measures their load as much as this program's work.
 */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"items_per_cpu_s", "1/s"},
    {"op_cpu_p50_ms", "ms"},
    {"op_cpu_tail_ms", "ms"},
};

/** Per-layer metrics, printed by every traced run (0 = not run). */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workloads.generate.s", "s"},
    {"workloads.invocations", "count"},
    {"gpu.golden.s", "s"},
    {"gpu.score.s", "s"},
    {"gpu.invocations", "count"},
    {"trace.swl_write.s", "s"},
    {"ingest.profile.s", "s"},
    {"ingest.decode.s", "s"},
    {"ingest.bytes", "bytes"},
    {"ingest.windows", "count"},
    {"sampling.sieve.s", "s"},
    {"sampling.sieve.strata", "count"},
    {"sampling.pks.s", "s"},
    {"sampling.pks.k_evaluated", "count"},
    {"sampling.pks.k_chosen", "count"},
    {"sampling.evaluate.s", "s"},
    {"sampling.sieve.err_pct", "%"},
    {"sampling.pks.err_pct", "%"},
    {"sampling.sieve.speedup_x", "x"},
    {"trace.synth.s", "s"},
    {"trace.write.s", "s"},
    {"trace.read.s", "s"},
    {"trace.bytes", "bytes"},
    {"trace.insts", "count"},
    {"gpusim.sim.s", "s"},
    {"gpusim.sim.p50_ms", "ms"},
    {"gpusim.sim.tail_ms", "ms"},
    {"gpusim.insts", "count"},
    {"gpusim.cycles", "count"},
    {"gpusim.host_ns_per_inst", "ns"},
    {"gpusim.cache.lookups", "count"},
    {"gpusim.cache.hit_ratio", "ratio"},
    {"gpusim.vs_golden_pct", "%"},
    {"eval.render.s", "s"},
    {"serve.start.s", "s"},
    {"serve.warmup.s", "s"},
    {"serve.ping.s", "s"},
    {"serve.ping.n", "count"},
    {"serve.ping.p50_ms", "ms"},
    {"serve.ping.tail_ms", "ms"},
    {"serve.stats.s", "s"},
    {"serve.stats.n", "count"},
    {"serve.stats.p50_ms", "ms"},
    {"serve.stats.tail_ms", "ms"},
    {"serve.sample.s", "s"},
    {"serve.sample.n", "count"},
    {"serve.sample.p50_ms", "ms"},
    {"serve.sample.tail_ms", "ms"},
    {"serve.evaluate.s", "s"},
    {"serve.evaluate.n", "count"},
    {"serve.evaluate.p50_ms", "ms"},
    {"serve.evaluate.tail_ms", "ms"},
    {"serve.simulate.s", "s"},
    {"serve.simulate.n", "count"},
    {"serve.simulate.p50_ms", "ms"},
    {"serve.simulate.tail_ms", "ms"},
    {"serve.trace-stats.s", "s"},
    {"serve.trace-stats.n", "count"},
    {"serve.trace-stats.p50_ms", "ms"},
    {"serve.trace-stats.tail_ms", "ms"},
    {"serve.errors", "count"},
    {"serve.rejected", "count"},
    {"bench.expected.s", "s"},
    {"bench.check.s", "s"},
    {"bench.other.s", "s"},
    {"obs.spans", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.selftime_gap_pct", "%"},
    {"wall.setup_s", "s"},
    {"wall.items_per_s", "1/s"},
    {"wall.op_p50_ms", "ms"},
    {"wall.op_tail_ms", "ms"},
};

/** Largest |layer self sum / untraced wall - 1| still accepted. */
constexpr double kSelfTimeTolerancePct = 5.0;

/** Set-up repeats: cheap set-ups run until this much time is spent. */
constexpr size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;
constexpr size_t kMaxSetups = 25;

/** Fewest passes a run makes, however long each takes. */
constexpr size_t kMinPasses = 2;
constexpr size_t kMinTracedRunPasses = 5;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t b = line.find_first_not_of(' ', colon + 1);
                return b == std::string::npos ? "" : line.substr(b);
            }
        }
    }
    return "unknown";
}

std::string
fingerprintJson(const Options &opts)
{
    std::ostringstream os;
    os << "{\"schema\":1,\"workload\":" << jsonString(opts.workload)
       << ",\"seed\":" << opts.seed
       << ",\"seconds\":" << jsonNumber(opts.seconds)
       << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"jobs\":" << kJobs
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":" << jsonString(cpuModel())
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"commit\":" << jsonString(opts.commit) << "}";
    return os.str();
}

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/** Latency summary line: n, p50, tail quantile, samples beyond. */
std::string
latencyNote(const std::string &what, std::vector<double> sorted,
            double q)
{
    if (sorted.empty())
        return what + ": no samples";
    size_t beyond = samplesBeyond(sorted, q);
    return what + ": n=" + std::to_string(sorted.size()) +
           fmt(" p50=%.4g ms p%g=%.4g ms", quantileSorted(sorted, 0.5),
               q * 100, quantileSorted(sorted, q)) +
           " (" + std::to_string(beyond) + " samples beyond" +
           (beyond < 10 ? ", fewer than 10" : "") + ")";
}

/** Self-time table lines for one phase, with the layer sum. */
void
selfTimeTable(const std::map<std::string, double> &self, double per,
              const std::string &root, const std::string &title,
              double wall, std::vector<std::string> &notes)
{
    notes.push_back(title);
    double layers = 0.0;
    for (const auto &[name, s] : self) {
        double v = s / per;
        if (name != root)
            layers += v;
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %10.4f s %6.1f%%",
                      name.c_str(), v, wall > 0 ? 100.0 * v / wall : 0.0);
        notes.push_back(line);
    }
    notes.push_back(fmt("  layer sum %.4f s vs wall %.4f s", layers,
                        wall));
}

/** Peak resident set size of this process, in MiB. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace

Digest &
Digest::add(const void *data, size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        _h ^= p[i];
        _h *= 0x100000001b3ULL;
    }
    return *this;
}

Digest &
Digest::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    return add(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(_h));
    return buf;
}

size_t
countMismatches(const std::vector<std::string> &reference,
                const std::vector<std::string> &current)
{
    size_t n = std::max(reference.size(), current.size());
    size_t bad = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i >= reference.size() || i >= current.size() ||
            current[i].rfind('!', 0) == 0 || reference[i] != current[i])
            ++bad;
    }
    return bad;
}

RunReport
runBenchmark(BenchWorkload &workload, const Options &opts)
{
    RunReport report;
    report.fingerprint = fingerprintJson(opts);
    SpanRecorder spans;
    sieve::ThreadPool pool(kJobs);
    Context ctx{opts, spans, pool};

    // Set-up: at least kMinSetups fresh set-ups and, for cheap ones,
    // more until kMinSetupSeconds are spent; the median is reported.
    // A traced run traces one set-up and needs no more.
    std::map<std::string, double> setupCounts;
    std::vector<double> setupS, setupCpuS;
    double setupTotal = 0.0;
    const size_t minSetups = opts.trace ? 1 : kMinSetups;
    while (setupS.size() < minSetups ||
           (!opts.trace && setupTotal < kMinSetupSeconds &&
            setupS.size() < kMaxSetups)) {
        setupCounts.clear();
        spans.setEnabled(opts.trace);
        int64_t t0 = nowNs();
        int64_t c0 = cpuNs();
        {
            Span root(spans, "setup");
            workload.setup(ctx, setupCounts);
        }
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        setupCpuS.push_back(static_cast<double>(cpuNs() - c0) * 1e-9);
        setupTotal += setupS.back();
        spans.setEnabled(false);
    }
    const size_t setupSpanCount = spans.spans().size();

    // Peak RSS is measured over the passes: return the set-up's freed
    // memory to the system, then restart the kernel's high-water mark.
    const double setupPeakMb = peakRssMb();
    ::malloc_trim(0);
    const bool peakReset =
        static_cast<bool>(std::ofstream("/proc/self/clear_refs") << "5");

    // Measured passes: whole passes until --seconds have elapsed.
    std::vector<double> untracedWall, tracedWall, rates, wallRates, opMs,
        opCpuMs;
    std::map<std::string, std::vector<double>> kindMs;
    std::map<std::string, double> passCounts, figures;
    std::vector<std::string> reference;
    size_t passes = 0, tracedPasses = 0;
    const size_t minPasses = opts.trace ? kMinTracedRunPasses : kMinPasses;
    const int64_t start = nowNs();
    // A traced run ends on an untraced pass, so that every traced pass
    // has an untraced one on either side to be compared with.
    while (passes < minPasses ||
           static_cast<double>(nowNs() - start) * 1e-9 < opts.seconds ||
           (opts.trace && passes % 2 == 0)) {
        const bool traced = opts.trace && passes % 2 == 1;
        spans.setEnabled(traced);
        PassResult r;
        int64_t t0 = nowNs();
        int64_t c0 = cpuNs();
        {
            Span root(spans, "pass");
            r = workload.pass(ctx, traced);
        }
        double wall = static_cast<double>(nowNs() - t0) * 1e-9;
        double cpu = static_cast<double>(cpuNs() - c0) * 1e-9;
        spans.setEnabled(false);

        if (passes == 0) {
            reference = r.opDigests;
            figures = r.figures;
            Digest d;
            for (const std::string &op : r.opDigests)
                d.add(op);
            report.digest = d.hex();
        }
        report.attempted += r.opDigests.size() + r.extraAttempted;
        report.failed += r.failed + countMismatches(reference, r.opDigests);
        if (traced) {
            tracedWall.push_back(wall);
            ++tracedPasses;
            for (const auto &[k, v] : r.counts)
                passCounts[k] += v;
        } else {
            untracedWall.push_back(wall);
            rates.push_back(r.items / cpu);
            wallRates.push_back(r.items / wall);
            opMs.insert(opMs.end(), r.opMs.begin(), r.opMs.end());
            opCpuMs.insert(opCpuMs.end(), r.opCpuMs.begin(),
                           r.opCpuMs.end());
            for (const auto &[kind, ms] : r.kindMs)
                kindMs[kind].push_back(ms);
        }
        ++passes;
    }
    std::map<std::string, double> finishFigures;
    workload.finish(ctx, finishFigures);
    report.correct = report.failed == 0 && report.attempted > 0;

    std::sort(opMs.begin(), opMs.end());
    std::sort(opCpuMs.begin(), opCpuMs.end());
    const double q = workload.tailQuantile();
    const double wallMedian = median(untracedWall);
    std::vector<std::string> &notes = report.notes;
    notes.push_back("fingerprint " + report.fingerprint);
    notes.push_back("outcome digest " + report.digest);
    notes.push_back(fmt("passes: %.0f untraced, %.0f traced; untraced "
                        "pass wall median %.4f s",
                        static_cast<double>(untracedWall.size()),
                        static_cast<double>(tracedPasses), wallMedian));
    std::string walls = "untraced pass walls (s):";
    for (double w : untracedWall)
        walls += fmt(" %.3f", w);
    notes.push_back(walls);
    notes.push_back(std::string("items: ") + workload.itemName() +
                    fmt("; median %.6g per CPU s, %.6g per wall s, over "
                        "%.0f passes",
                        median(rates), median(wallRates),
                        static_cast<double>(rates.size())));
    notes.push_back(latencyNote(std::string("op CPU time (") +
                                    workload.opName() + ")",
                                opCpuMs, q));
    notes.push_back(latencyNote("op wall latency", opMs, q));
    for (const auto &[name, value] : figures)
        notes.push_back("figure " + name + " = " + jsonNumber(value));
    const double passPeakMb = peakRssMb();
    notes.push_back(fmt("peak RSS: %.1f MB through set-up, %.1f MB during "
                        "the passes",
                        setupPeakMb, passPeakMb) +
                    (peakReset ? "" : " (peak not reset: whole run)"));
    notes.push_back(fmt("checks: %.0f attempted, %.0f failed",
                        static_cast<double>(report.attempted),
                        static_cast<double>(report.failed)));

    if (!opts.trace) {
        notes.push_back(fmt("setup: median %.4f CPU s, %.4f wall s, of "
                            "%.0f set-ups",
                            median(setupCpuS), median(setupS),
                            static_cast<double>(setupS.size())));
        const std::map<std::string, double> values = {
            {"setup_s", median(setupCpuS)},
            {"peak_rss_mb", passPeakMb},
            {"items_per_cpu_s", median(rates)},
            {"op_cpu_p50_ms",
             opCpuMs.empty() ? 0.0 : quantileSorted(opCpuMs, 0.5)},
            {"op_cpu_tail_ms",
             opCpuMs.empty() ? 0.0 : quantileSorted(opCpuMs, q)},
        };
        for (const auto &[name, unit] : kEndToEnd)
            report.metrics[name] = {values.at(name), unit};
        return report;
    }

    // Traced run: per-layer self times, counts and figures.
    std::vector<SpanRecord> all = spans.spans();
    std::vector<SpanRecord> setupSpans(all.begin(),
                                       all.begin() + setupSpanCount);
    std::vector<SpanRecord> passSpans(all.begin() + setupSpanCount,
                                      all.end());
    std::map<std::string, double> setupSelf = selfSecondsByName(setupSpans);
    std::map<std::string, double> passSelf = selfSecondsByName(passSpans);
    const double per = std::max<size_t>(1, tracedPasses);
    selfTimeTable(setupSelf, 1.0, "setup",
                  "self-time table, one traced set-up:", setupS.front(),
                  notes);
    selfTimeTable(passSelf, per, "pass",
                  "self-time table, per traced pass (root 'pass' = "
                  "bench.other):",
                  wallMedian, notes);

    // Each traced pass against the untraced passes on either side of
    // it: the host's speed drifts by more than the tolerance over a
    // run, but little from one pass to the next.
    std::map<uint64_t, double> selfById = selfSeconds(passSpans);
    std::vector<double> gaps, overheads;
    for (const SpanRecord &root : passSpans) {
        const size_t k = gaps.size();
        if (root.name != "pass" || root.parent != 0 ||
            k >= tracedWall.size() || k >= untracedWall.size())
            continue;
        double ref = untracedWall[k];
        if (k + 1 < untracedWall.size())
            ref = 0.5 * (ref + untracedWall[k + 1]);
        double layers = static_cast<double>(root.endNs - root.startNs) *
                            1e-9 -
                        selfById[root.id];
        gaps.push_back(100.0 * (layers / ref - 1.0));
        overheads.push_back(100.0 * (tracedWall[k] / ref - 1.0));
    }
    const double gapPct = median(gaps);
    const double overheadPct = median(overheads);
    notes.push_back(fmt("layer self-time sum vs the untraced passes "
                        "beside each traced pass: median %+.2f%% over %.0f "
                        "traced passes (tolerance +-%.0f%%)",
                        gapPct, static_cast<double>(gaps.size()),
                        kSelfTimeTolerancePct) +
                    (std::fabs(gapPct) <= kSelfTimeTolerancePct
                         ? " within"
                         : " OUTSIDE"));

    std::set<std::string> declared;
    for (const auto &[name, unit] : kPerLayer) {
        declared.insert(name);
        report.metrics[name] = {0.0, unit};
    }
    auto put = [&](const std::string &name, double v) {
        auto it = report.metrics.find(name);
        if (it == report.metrics.end()) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                         name.c_str());
            return;
        }
        it->second.value = v;
    };
    for (const auto &[name, s] : setupSelf) {
        if (name != "setup" && declared.count(name + ".s"))
            put(name + ".s", s);
    }
    for (const auto &[name, s] : passSelf) {
        if (name == "pass")
            put("bench.other.s", s / per);
        else
            put(name + ".s", s / per);
    }
    for (const auto &[k, v] : setupCounts)
        put(k, v);
    for (const auto &[k, v] : passCounts)
        put(k, v / per);
    for (const auto &[k, v] : figures)
        put(k, v);
    for (const auto &[k, v] : finishFigures)
        put(k, v);
    for (auto &[kind, samples] : kindMs) {
        std::sort(samples.begin(), samples.end());
        double kq = highestSupportedQuantile(samples);
        notes.push_back(latencyNote(kind, samples, kq));
        if (declared.count(kind + ".n"))
            put(kind + ".n", static_cast<double>(samples.size()));
        put(kind + ".p50_ms", quantileSorted(samples, 0.5));
        put(kind + ".tail_ms", quantileSorted(samples, kq));
    }
    double insts = report.metrics["gpusim.insts"].value;
    if (insts > 0)
        put("gpusim.host_ns_per_inst",
            report.metrics["gpusim.sim.s"].value / insts * 1e9);
    put("obs.spans", static_cast<double>(all.size()));
    put("obs.trace_overhead_pct", overheadPct);
    put("obs.selftime_gap_pct", gapPct);
    put("wall.setup_s", setupS.front());
    put("wall.items_per_s", median(wallRates));
    if (!opMs.empty()) {
        put("wall.op_p50_ms", quantileSorted(opMs, 0.5));
        put("wall.op_tail_ms", quantileSorted(opMs, q));
    }

    std::string tracePath = opts.outDir + "/spans-" + opts.workload +
                            "-seed" + std::to_string(opts.seed) + ".json";
    if (spans.writeChromeTrace(tracePath))
        notes.push_back("spans written to " + tracePath);
    else
        notes.push_back("could not write spans to " + tracePath);
    return report;
}

std::string
resultJson(const RunReport &report)
{
    std::ostringstream os;
    os << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
recordJson(const RunReport &report)
{
    std::ostringstream os;
    os << "{\"fingerprint\": " << report.fingerprint
       << ", \"digest\": " << jsonString(report.digest)
       << ", \"result\": " << resultJson(report) << ", \"notes\": [";
    for (size_t i = 0; i < report.notes.size(); ++i)
        os << (i ? ", " : "") << jsonString(report.notes[i]);
    os << "]}\n";
    return os.str();
}

} // namespace perfbench
