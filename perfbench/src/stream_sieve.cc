/**
 * @file
 * stream-sieve: Sieve-only out-of-core evaluation of four challenging
 * workloads exported at 10x the default cap (240k invocations each)
 * and read through a 32 MiB ingest window.
 *
 * The seed goes into the invocations' noise seeds, not into the
 * registry salts: the files hold the registry's instances with other
 * golden timings. A new salt would redraw each kernel's instruction
 * counts, and at 240k invocations that moves one file's Sieve
 * stratification from 6 to 330 ms, so the work of a pass varied
 * 2.8-fold from seed to seed; redrawn noise changes every golden
 * cycle count and error figure but leaves the work the same.
 *
 * Set-up generates and exports the .swl files and computes, once,
 * the resident evaluation report of each file. A pass streams every
 * file and checks its report against the resident one byte for byte.
 * Untraced passes call eval::streamEvaluate; traced passes recompose
 * it from its public parts — profileStream, sampleProfile, windowed
 * HardwareExecutor::run scoring, sampling::evaluate — one span each.
 */

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>

#include "eval/render.hh"
#include "eval/streaming.hh"
#include "gpu/hardware_executor.hh"
#include "trace/workload_io.hh"
#include "workloads.hh"
#include "workloads/generator.hh"

namespace perfbench {

namespace {

using namespace sieve;

constexpr size_t kCap = 240'000;
constexpr size_t kWindowBytes = size_t{32} << 20;
const char *const kWorkloads[] = {"lmc", "dcg", "lgt", "nst"};

/**
 * Flush a freshly written file to disk, so its write-back happens in
 * set-up and not during the measured passes that read it.
 */
void
syncFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw std::runtime_error("cannot reopen " + path);
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        throw std::runtime_error("fsync failed for " + path);
}

struct File
{
    std::string path;
    std::string expected; //!< resident evaluation report
    uint64_t bytes = 0;
    uint64_t invocations = 0;
};

class StreamSieve : public BenchWorkload
{
  public:
    const char *itemName() const override
    {
        return "invocations streamed, stratified and scored";
    }
    const char *opName() const override
    {
        return "one 240k-invocation file's streamed evaluation";
    }
    double tailQuantile() const override { return 0.75; }

    void
    setup(Context &ctx, std::map<std::string, double> &counts) override
    {
        std::filesystem::create_directories(ctx.opts.workDir);
        _files.clear();
        gpu::HardwareExecutor executor(_cfg.arch);
        for (const char *name : kWorkloads) {
            File f;
            f.path = ctx.opts.workDir + "/stream-" + name + ".swl";
            {
                trace::Workload wl = [&] {
                    Span s(ctx.spans, "workloads.generate");
                    return reseedNoise(workloads::generateWorkload(
                                           registrySpec(name, kCap)),
                                       ctx.opts.seed);
                }();
                Span s(ctx.spans, "trace.swl_write");
                trace::saveWorkloadFile(wl, f.path);
                syncFile(f.path);
            }
            Span s(ctx.spans, "bench.expected");
            trace::Workload wl = trace::loadWorkloadFile(f.path);
            sampling::SieveSampler sampler(_cfg.sieve);
            sampling::SamplingResult result = sampler.sample(wl, &ctx.pool);
            gpu::WorkloadResult gold = executor.runWorkload(wl);
            double predicted =
                sampler.predictCycles(result, wl, gold.perInvocation);
            f.expected = render(wl.suite(), wl.name(),
                                sampling::evaluate(result, predicted,
                                                   gold.perInvocation));
            f.bytes = std::filesystem::file_size(f.path);
            f.invocations = wl.numInvocations();
            counts["workloads.invocations"] += f.invocations;
            _files.push_back(std::move(f));
        }
    }

    PassResult
    pass(Context &ctx, bool traced) override
    {
        PassResult out;
        for (const File &f : _files) {
            OpClock clock;
            std::string report =
                traced ? streamTraced(ctx, f, out.counts)
                       : streamUntraced(ctx, f);
            clock.record(out);
            Span s(ctx.spans, "bench.check");
            out.opDigests.push_back((report == f.expected ? "" : "!") +
                                    Digest().add(report).hex());
            out.items += static_cast<double>(f.invocations);
        }
        return out;
    }

  private:
    static std::string
    render(const std::string &suite, const std::string &name,
           const sampling::MethodEvaluation &eval)
    {
        return eval::evaluationReport("sieve", suite, name, eval)
            .toString();
    }

    std::string
    streamUntraced(Context &ctx, const File &f) const
    {
        Expected<eval::StreamEvaluation> e =
            eval::streamEvaluate(f.path, _cfg, &ctx.pool);
        if (!e.ok())
            return "error: " + e.error().toString();
        return render(e.value().profile.suite, e.value().profile.name,
                      e.value().eval);
    }

    /** eval::streamEvaluate, one public call per span. */
    std::string
    streamTraced(Context &ctx, const File &f,
                 std::map<std::string, double> &counts)
    {
        const size_t window = _cfg.budget.windowInvocations();
        Expected<sampling::WorkloadProfile> profile = [&] {
            Span s(ctx.spans, "ingest.profile");
            Expected<trace::WorkloadStreamReader> reader =
                trace::WorkloadStreamReader::tryOpen(f.path);
            if (!reader.ok())
                return Expected<sampling::WorkloadProfile>(reader.error());
            return sampling::profileStream(reader.value(), _cfg.budget);
        }();
        if (!profile.ok())
            return "error: " + profile.error().toString();
        const sampling::WorkloadProfile &p = profile.value();
        counts["ingest.bytes"] += static_cast<double>(f.bytes);
        counts["ingest.windows"] +=
            static_cast<double>((p.numInvocations + window - 1) / window);

        sampling::SieveSampler sampler(_cfg.sieve);
        sampling::SamplingResult result = [&] {
            Span s(ctx.spans, "sampling.sieve");
            return sampler.sampleProfile(p, &ctx.pool);
        }();
        counts["sampling.sieve.strata"] +=
            static_cast<double>(result.strata.size());

        // Golden scoring pass, window by window, order preserved, as
        // streamEvaluate scores with one pool worker. Where it folds
        // each window's results, sampling::evaluate needs all of them:
        // they go to a buffer kept from pass to pass, so the
        // recomposition adds no allocation of its own after the first.
        Expected<trace::WorkloadStreamReader> reader = [&] {
            Span s(ctx.spans, "ingest.decode");
            return trace::WorkloadStreamReader::tryOpen(f.path);
        }();
        if (!reader.ok())
            return "error: " + reader.error().toString();
        gpu::HardwareExecutor hw(_cfg.arch);
        std::vector<gpu::KernelResult> &golden = _golden;
        golden.clear();
        std::vector<trace::KernelInvocation> records;
        while (true) {
            Expected<size_t> got = [&] {
                Span s(ctx.spans, "ingest.decode");
                return reader.value().nextWindow(records, window);
            }();
            if (!got.ok())
                return "error: " + got.error().toString();
            if (got.value() == 0)
                break;
            counts["ingest.windows"] += 1;
            Span s(ctx.spans, "gpu.score");
            for (size_t i = 0; i < got.value(); ++i)
                golden.push_back(hw.run(records[i]));
        }
        counts["gpu.invocations"] += static_cast<double>(golden.size());

        sampling::MethodEvaluation eval;
        {
            Span s(ctx.spans, "sampling.evaluate");
            std::vector<gpu::KernelResult> reps;
            for (const sampling::Stratum &st : result.strata)
                reps.push_back(golden.at(st.representative));
            double predicted = sampler.predictCyclesFromReps(
                result, p.totalInstructions, reps);
            eval = sampling::evaluate(result, predicted, golden);
        }
        Span s(ctx.spans, "eval.render");
        return render(p.suite, p.name, eval);
    }

    static eval::StreamConfig
    streamConfig()
    {
        eval::StreamConfig cfg;
        cfg.budget.budgetBytes = kWindowBytes;
        return cfg;
    }

    const eval::StreamConfig _cfg = streamConfig();
    std::vector<File> _files;
    std::vector<gpu::KernelResult> _golden; //!< traced passes' scores
};

} // namespace

std::unique_ptr<BenchWorkload>
makeStreamSieve()
{
    return std::make_unique<StreamSieve>();
}

} // namespace perfbench
