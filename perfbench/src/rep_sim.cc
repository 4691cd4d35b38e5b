/**
 * @file
 * rep-sim: the Section V-G path. The Sieve representatives of all 16
 * challenging workloads (about 700 invocations) are synthesized as
 * traces of 2 CTAs each, written as trace files, and simulated on a
 * fresh SimCache every pass, so every trace is distinct and
 * memoization never hits. Two traced CTAs, not the 8 of the
 * simulation bench, fit the whole representative set into a pass of
 * about ten seconds on one thread.
 *
 * The seed goes into the invocations' noise seeds (reseedNoise): it
 * changes every trace's addresses and instruction order, so every
 * simulated cycle count, but not the representatives or the trace
 * sizes. A new registry salt would redraw both, and the time of one
 * chunk moved by 40% from seed to seed.
 *
 * Set-up generates the workloads, their golden runs and their Sieve
 * strata, and orders the representatives round-robin over the
 * workloads. A pass handles them in 12 equal chunks, each an
 * operation: synthesize, write, then simulate. Untraced passes call
 * gpusim::simulateTraceFilesCached; traced passes split it into the
 * trace-file reads and gpusim::simulateBatchCached so reading and
 * simulating get their own spans.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "eval/render.hh"
#include "gpu/hardware_executor.hh"
#include "gpusim/sim_batch.hh"
#include "gpusim/sim_cache.hh"
#include "gpusim/trace_synth.hh"
#include "sampling/sieve.hh"
#include "stats/weighted.hh"
#include "trace/sass_trace.hh"
#include "workloads.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace perfbench {

namespace {

using namespace sieve;

constexpr uint64_t kTracedCtas = 2;
/** A pass handles the traces in this many equal chunks (operations). */
constexpr size_t kChunks = 12;

struct Rep
{
    size_t workload = 0;
    size_t stratum = 0;
    size_t invocation = 0;
};

struct Studied
{
    trace::Workload workload;
    double goldenCycles = 0.0;
    sampling::SamplingResult strata;
};

class RepSim : public BenchWorkload
{
  public:
    RepSim() : _simulator(gpu::ArchConfig::ampereRtx3080()) {}

    const char *itemName() const override
    {
        return "simulated warp instructions";
    }
    const char *opName() const override
    {
        return "one chunk of 1/12 of the traces: synthesize, write, "
               "read and simulate";
    }
    double tailQuantile() const override { return 0.75; }

    void
    setup(Context &ctx, std::map<std::string, double> &counts) override
    {
        std::filesystem::create_directories(ctx.opts.workDir);
        _studied.clear();
        _reps.clear();
        _paths.clear();
        gpu::HardwareExecutor executor(gpu::ArchConfig::ampereRtx3080());
        for (const workloads::WorkloadSpec &spec :
             workloads::challengingSpecs()) {
            Studied s{[&] {
                          Span span(ctx.spans, "workloads.generate");
                          return reseedNoise(
                              workloads::generateWorkload(spec),
                              ctx.opts.seed);
                      }(),
                      0.0,
                      {}};
            {
                Span span(ctx.spans, "gpu.golden");
                s.goldenCycles = executor.runWorkload(s.workload).totalCycles;
            }
            {
                Span span(ctx.spans, "sampling.sieve");
                s.strata = sampling::SieveSampler().sample(s.workload,
                                                           &ctx.pool);
            }
            counts["workloads.invocations"] += s.workload.numInvocations();
            counts["gpu.invocations"] += s.workload.numInvocations();
            counts["sampling.sieve.strata"] += s.strata.strata.size();
            _studied.push_back(std::move(s));
        }
        // Round-robin over the workloads, so every chunk mixes them.
        for (size_t k = 0, added = 1; added; ++k) {
            added = 0;
            for (size_t w = 0; w < _studied.size(); ++w) {
                const auto &strata = _studied[w].strata.strata;
                if (k >= strata.size())
                    continue;
                _reps.push_back({w, k, strata[k].representative});
                _paths.push_back(ctx.opts.workDir + "/rep-" +
                                 std::to_string(_paths.size()) + ".trace");
                ++added;
            }
        }
    }

    PassResult
    pass(Context &ctx, bool traced) override
    {
        PassResult out;
        const size_t n = _reps.size();
        gpusim::TraceSynthOptions synth;
        synth.maxTracedCtas = kTracedCtas;
        gpusim::SimCache cache(_simulator);
        std::vector<gpusim::KernelSimResult> results(n);
        std::vector<std::pair<std::string, uint64_t>> names;
        for (size_t c = 0; c < kChunks; ++c) {
            const size_t base = n * c / kChunks;
            const size_t m = n * (c + 1) / kChunks - base;
            const OpClock clock;
            std::vector<trace::KernelTrace> traces = [&] {
                Span s(ctx.spans, "trace.synth");
                return parallelMap(ctx.pool, m, [&](size_t i) {
                    const Rep &r = _reps[base + i];
                    return gpusim::synthesizeTrace(
                        _studied[r.workload].workload, r.invocation, synth);
                });
            }();
            {
                Span s(ctx.spans, "trace.write");
                parallelFor(ctx.pool, m, [&](size_t i) {
                    trace::writeTraceFile(traces[i], _paths[base + i]);
                });
            }
            // Only each trace's identity outlives its write.
            for (const trace::KernelTrace &t : traces) {
                names.emplace_back(t.kernelName, t.invocationId);
                out.counts["trace.insts"] +=
                    static_cast<double>(t.tracedInstructions());
            }
            traces = {};
            std::vector<std::string> paths(_paths.begin() + base,
                                           _paths.begin() + base + m);
            gpusim::BatchSimResult batch;
            if (traced) {
                std::vector<Expected<trace::KernelTrace>> read = [&] {
                    Span s(ctx.spans, "trace.read");
                    return parallelMap(ctx.pool, m, [&](size_t i) {
                        return trace::tryReadTraceFile(paths[i]);
                    });
                }();
                std::vector<trace::KernelTrace> loaded;
                for (Expected<trace::KernelTrace> &r : read) {
                    if (!r.ok()) {
                        out.failed += 1;
                        return out;
                    }
                    loaded.push_back(std::move(r).value());
                }
                Span s(ctx.spans, "gpusim.sim");
                batch = gpusim::simulateBatchCached(cache, loaded, ctx.pool);
            } else {
                batch = gpusim::simulateTraceFilesCached(cache, paths,
                                                         ctx.pool);
            }
            std::copy(batch.results.begin(), batch.results.end(),
                      results.begin() + static_cast<long>(base));
            clock.record(out);
        }

        std::vector<std::string> reports(n);
        std::vector<double> predicted(_studied.size());
        {
            Span s(ctx.spans, "eval.render");
            for (size_t i = 0; i < n; ++i) {
                trace::KernelTrace id;
                id.kernelName = names[i].first;
                id.invocationId = names[i].second;
                reports[i] =
                    eval::simulationReport(id, results[i]).toString();
            }
            std::vector<std::vector<double>> ipcs(_studied.size());
            for (size_t w = 0; w < _studied.size(); ++w)
                ipcs[w].resize(_studied[w].strata.strata.size());
            for (size_t i = 0; i < n; ++i)
                ipcs[_reps[i].workload][_reps[i].stratum] =
                    results[i].estimatedIpc;
            for (size_t w = 0; w < _studied.size(); ++w) {
                std::vector<double> weights;
                for (const sampling::Stratum &st : _studied[w].strata.strata)
                    weights.push_back(st.weight);
                predicted[w] =
                    static_cast<double>(
                        _studied[w].workload.totalInstructions()) /
                    stats::weightedHarmonicMean(ipcs[w], weights);
            }
        }

        Span s(ctx.spans, "bench.check");
        double gap = 0.0;
        for (size_t w = 0; w < _studied.size(); ++w)
            gap += std::fabs(predicted[w] / _studied[w].goldenCycles - 1.0);
        out.figures["gpusim.vs_golden_pct"] =
            100.0 * gap / static_cast<double>(_studied.size());
        for (size_t i = 0; i < n; ++i) {
            const gpusim::KernelSimResult &r = results[i];
            out.opDigests.push_back(Digest()
                                        .add(r.simCycles)
                                        .add(r.instructionsSimulated)
                                        .add(r.estimatedKernelCycles)
                                        .add(reports[i])
                                        .hex());
            out.items += static_cast<double>(r.instructionsSimulated);
            out.counts["trace.bytes"] += static_cast<double>(
                std::filesystem::file_size(_paths[i]));
            out.counts["gpusim.insts"] +=
                static_cast<double>(r.instructionsSimulated);
            out.counts["gpusim.cycles"] += static_cast<double>(r.simCycles);
            out.kindMs.emplace_back("gpusim.sim", r.wallSeconds * 1e3);
        }
        gpusim::SimCacheStats stats = cache.stats();
        out.counts["gpusim.cache.lookups"] += static_cast<double>(stats.lookups);
        out.counts["gpusim.cache.hit_ratio"] +=
            stats.lookups ? static_cast<double>(stats.hits) /
                                static_cast<double>(stats.lookups)
                          : 0.0;
        return out;
    }

  private:
    gpusim::GpuSimulator _simulator;
    std::vector<Studied> _studied;
    std::vector<Rep> _reps;
    std::vector<std::string> _paths;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeRepSim()
{
    return std::make_unique<RepSim>();
}

} // namespace perfbench
