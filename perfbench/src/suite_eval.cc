/**
 * @file
 * suite-eval: resident Sieve + PKS evaluation of the 16 challenging
 * (Cactus + MLPerf) workloads at the default invocation cap on the
 * Ampere model — the paper's Fig. 3 accuracy path.
 *
 * The seed goes into the invocations' noise seeds, not into the
 * registry salts: every seed evaluates the registry's instances with
 * other golden timings. How long one workload's PKS takes depends on
 * the instance a salt draws, and with new salts the work of a pass
 * moved by 10% from seed to seed; redrawn noise changes the golden
 * cycles, both predictions and both errors, but not the profiles.
 *
 * Set-up generates the instances and their golden runs. A pass
 * evaluates every instance with both methods and renders both
 * reports. Untraced passes call eval::evaluateWorkload; traced passes
 * make the same sampler, predictor and evaluate calls one by one so
 * Sieve and PKS get their own spans.
 */

#include <cmath>
#include <cstdio>

#include "eval/experiment.hh"
#include "eval/render.hh"
#include "gpu/hardware_executor.hh"
#include "stats/error_metrics.hh"
#include "workloads.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace perfbench {

namespace {

using namespace sieve;

/** Digest of a sampling result: strata, members, reps, weights. */
void
addResult(Digest &d, const sampling::SamplingResult &r)
{
    d.add(r.method).add(static_cast<uint64_t>(r.strata.size()));
    d.add(static_cast<uint64_t>(r.chosenK));
    for (const sampling::Stratum &s : r.strata) {
        d.add(static_cast<uint64_t>(s.representative))
            .add(s.weight)
            .add(static_cast<uint64_t>(s.kernelId))
            .add(static_cast<uint64_t>(s.tier))
            .add(s.members.data(), s.members.size() * sizeof(size_t));
    }
}

class SuiteEval : public BenchWorkload
{
  public:
    const char *itemName() const override
    {
        return "invocations evaluated by both Sieve and PKS";
    }
    const char *opName() const override
    {
        return "one workload instance's Sieve + PKS evaluation and "
               "reports";
    }
    double tailQuantile() const override { return 0.75; }

    void
    setup(Context &ctx, std::map<std::string, double> &counts) override
    {
        _workloads.clear();
        _golden.clear();
        gpu::HardwareExecutor executor(gpu::ArchConfig::ampereRtx3080());
        std::vector<workloads::WorkloadSpec> specs =
            workloads::challengingSpecs();
        for (const workloads::WorkloadSpec &spec : specs) {
            {
                Span s(ctx.spans, "workloads.generate");
                _workloads.push_back(reseedNoise(
                    workloads::generateWorkload(spec), ctx.opts.seed));
            }
            Span s(ctx.spans, "gpu.golden");
            _golden.push_back(executor.runWorkload(_workloads.back()));
        }
        for (const trace::Workload &wl : _workloads) {
            counts["workloads.invocations"] += wl.numInvocations();
            counts["gpu.invocations"] += wl.numInvocations();
        }
    }

    PassResult
    pass(Context &ctx, bool traced) override
    {
        PassResult out;
        std::vector<double> sieveErr, pksErr;
        double logSpeedup = 0.0;
        for (size_t i = 0; i < _workloads.size(); ++i) {
            const trace::Workload &wl = _workloads[i];
            const gpu::WorkloadResult &gold = _golden[i];
            OpClock clock;
            eval::WorkloadOutcome o =
                traced ? evaluateTraced(ctx, wl, gold)
                       : eval::evaluateWorkload(wl, gold, {}, {},
                                                &ctx.pool);
            std::string text;
            {
                Span s(ctx.spans, "eval.render");
                text = eval::evaluationReport("sieve", o.suite, o.name,
                                              o.sieve)
                           .toString() +
                       eval::evaluationReport("pks", o.suite, o.name,
                                              o.pks)
                           .toString();
            }
            clock.record(out);

            Span s(ctx.spans, "bench.check");
            Digest d;
            addResult(d, o.sieveResult);
            addResult(d, o.pksResult);
            d.add(o.sieve.predictedCycles).add(o.pks.predictedCycles);
            d.add(text);
            out.opDigests.push_back(d.hex());
            out.items += static_cast<double>(wl.numInvocations());
            sieveErr.push_back(o.sieve.error);
            pksErr.push_back(o.pks.error);
            logSpeedup += std::log(o.sieve.speedup);
            out.counts["sampling.sieve.strata"] += o.sieveResult.strata.size();
            out.counts["sampling.pks.k_evaluated"] += std::min<size_t>(
                sampling::PksConfig{}.maxK, wl.numInvocations());
            out.counts["sampling.pks.k_chosen"] += o.pksResult.chosenK;
        }
        double sieve = 100.0 * stats::meanError(sieveErr);
        double pks = 100.0 * stats::meanError(pksErr);
        out.figures["sampling.sieve.err_pct"] = sieve;
        out.figures["sampling.pks.err_pct"] = pks;
        out.figures["sampling.sieve.speedup_x"] =
            std::exp(logSpeedup / static_cast<double>(sieveErr.size()));

        // At the default seed the averages are the Fig. 3 row.
        if (ctx.opts.seed == 0) {
            char text[64];
            std::snprintf(text, sizeof text, "%.1f %.1f", sieve, pks);
            out.extraAttempted += 1;
            if (std::string(text) != "0.5 15.7") {
                std::fprintf(stderr,
                             "suite-eval: Fig. 3 averages %s, expected "
                             "0.5 15.7\n",
                             text);
                out.failed += 1;
            }
        }
        return out;
    }

  private:
    /** eval::evaluateWorkload, one public call per span. */
    static eval::WorkloadOutcome
    evaluateTraced(Context &ctx, const trace::Workload &wl,
                   const gpu::WorkloadResult &gold)
    {
        eval::WorkloadOutcome o;
        o.suite = wl.suite();
        o.name = wl.name();
        sampling::SieveSampler sieve;
        double sievePred = 0.0;
        {
            Span s(ctx.spans, "sampling.sieve");
            o.sieveResult = sieve.sample(wl, &ctx.pool);
            sievePred = sieve.predictCycles(o.sieveResult, wl,
                                            gold.perInvocation);
        }
        {
            Span s(ctx.spans, "sampling.evaluate");
            o.sieve = sampling::evaluate(o.sieveResult, sievePred,
                                         gold.perInvocation);
        }
        sampling::PksSampler pks;
        double pksPred = 0.0;
        {
            Span s(ctx.spans, "sampling.pks");
            o.pksResult = pks.sample(wl, gold.perInvocation, &ctx.pool);
            pksPred = pks.predictCycles(o.pksResult, gold.perInvocation);
        }
        Span s(ctx.spans, "sampling.evaluate");
        o.pks = sampling::evaluate(o.pksResult, pksPred,
                                   gold.perInvocation);
        return o;
    }

    std::vector<trace::Workload> _workloads;
    std::vector<gpu::WorkloadResult> _golden;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeSuiteEval()
{
    return std::make_unique<SuiteEval>();
}

} // namespace perfbench
