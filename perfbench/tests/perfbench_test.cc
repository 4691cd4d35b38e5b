/**
 * @file
 * Tests of the benchmark's own machinery: self-time attribution,
 * exact quantiles, seeding, and failure counting.
 *
 *   python3 perfbench/run.py test
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "gpu/hardware_executor.hh"
#include "gpusim/trace_synth.hh"
#include "harness.hh"
#include "spans.hh"
#include "trace/sass_trace.hh"
#include "workloads.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace perfbench {
namespace {

SpanRecord
span(uint64_t id, uint64_t parent, const std::string &name, uint64_t thread,
     int64_t startMs, int64_t endMs)
{
    return {id, parent, name, thread, startMs * 1'000'000, endMs * 1'000'000};
}

TEST(SelfTime, NestedChildrenAreSubtractedFromTheParent)
{
    std::vector<SpanRecord> spans = {
        span(1, 0, "root", 1, 0, 100),
        span(2, 1, "a", 1, 10, 40),
        span(3, 2, "b", 1, 20, 30),
        span(4, 1, "c", 1, 50, 90),
    };
    std::map<std::string, double> self = selfSecondsByName(spans);
    EXPECT_NEAR(self["root"], 0.030, 1e-12);
    EXPECT_NEAR(self["a"], 0.020, 1e-12);
    EXPECT_NEAR(self["b"], 0.010, 1e-12);
    EXPECT_NEAR(self["c"], 0.040, 1e-12);
}

// Two workers each busy for the whole 452 ms of a suite. Summing
// inclusive spans reports 905 ms of "pool" inside a 452 ms suite;
// self time splits the overlap, so the layers add up to the suite.
TEST(SelfTime, OverlappingWorkersSplitTheirCommonTime)
{
    std::vector<SpanRecord> spans = {
        span(1, 0, "suite", 1, 0, 452),
        span(2, 1, "pool", 2, 0, 452),
        span(3, 1, "pool", 3, 0, 453),
    };
    std::map<std::string, double> self = selfSecondsByName(spans);
    double inclusive = 0.452 + 0.453;
    EXPECT_GT(inclusive, 0.9);
    EXPECT_NEAR(self["pool"], 0.453, 1e-12);
    EXPECT_NEAR(self["suite"], 0.0, 1e-12);
    EXPECT_NEAR(self["pool"] + self["suite"], 0.453, 1e-12);
}

TEST(SelfTime, PartialOverlapAndIdleGaps)
{
    // Root 0-100; client A 10-50, client B 30-70, B's child 40-60.
    std::vector<SpanRecord> spans = {
        span(1, 0, "root", 1, 0, 100),
        span(2, 1, "A", 2, 10, 50),
        span(3, 1, "B", 3, 30, 70),
        span(4, 3, "Bchild", 3, 40, 60),
    };
    std::map<std::string, double> self = selfSecondsByName(spans);
    // root: 0-10 and 70-100 alone.
    EXPECT_NEAR(self["root"], 0.040, 1e-12);
    // A: 10-30 alone, 30-40 shared with B, 40-50 shared with Bchild.
    EXPECT_NEAR(self["A"], 0.020 + 0.005 + 0.005, 1e-12);
    // B: 30-40 shared with A, 60-70 alone.
    EXPECT_NEAR(self["B"], 0.005 + 0.010, 1e-12);
    EXPECT_NEAR(self["Bchild"], 0.005 + 0.010, 1e-12);
    double total = 0.0;
    for (const auto &[name, s] : self)
        total += s;
    EXPECT_NEAR(total, 0.100, 1e-12);
}

TEST(SelfTime, RecorderNestsSpansPerThread)
{
    SpanRecorder rec;
    rec.setEnabled(true);
    {
        Span outer(rec, "outer");
        Span inner(rec, "inner");
        EXPECT_EQ(currentSpanId(), inner.id());
    }
    std::vector<SpanRecord> spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(currentSpanId(), 0u);

    SpanRecorder off;
    {
        Span ignored(off, "ignored");
        EXPECT_EQ(ignored.id(), 0u);
    }
    EXPECT_TRUE(off.spans().empty());
}

/** Smallest sample x with at least ceil(q n) samples <= x. */
double
bruteQuantile(const std::vector<double> &samples, double q)
{
    double need = std::ceil(q * static_cast<double>(samples.size()) - 1e-9);
    need = std::max(need, 1.0);
    double best = 0.0;
    bool found = false;
    for (double x : samples) {
        size_t atMost = static_cast<size_t>(
            std::count_if(samples.begin(), samples.end(),
                          [x](double y) { return y <= x; }));
        if (static_cast<double>(atMost) >= need && (!found || x < best)) {
            best = x;
            found = true;
        }
    }
    return best;
}

TEST(Quantiles, MatchBruteForceOrderStatistics)
{
    std::mt19937_64 rng(7);
    for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u}) {
        std::vector<double> samples(n);
        std::lognormal_distribution<double> dist(0.0, 1.0);
        for (double &x : samples)
            x = std::round(dist(rng) * 8.0) / 8.0; // with ties
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0})
            EXPECT_EQ(quantileSorted(sorted, q), bruteQuantile(samples, q))
                << "n=" << n << " q=" << q;
    }
}

TEST(Quantiles, TailNeedsTenSamplesBeyond)
{
    std::vector<double> sorted(1000);
    for (size_t i = 0; i < sorted.size(); ++i)
        sorted[i] = static_cast<double>(i);
    EXPECT_EQ(samplesBeyond(sorted, 0.99), 10u);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(sorted), 0.99);
    sorted.resize(999);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(sorted), 0.95);
    sorted.resize(30);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(sorted), 0.5);
}

TEST(Seeding, NoiseSeedChangesTimingsButNotWork)
{
    sieve::trace::Workload base =
        sieve::workloads::generateWorkload(registrySpec("lmc", 2000));
    sieve::trace::Workload same = reseedNoise(base, 0);
    sieve::trace::Workload other = reseedNoise(base, 7);
    ASSERT_EQ(other.numKernels(), base.numKernels());
    ASSERT_EQ(other.numInvocations(), base.numInvocations());
    size_t changed = 0;
    for (size_t i = 0; i < base.numInvocations(); ++i) {
        const sieve::trace::KernelInvocation &a = base.invocation(i);
        EXPECT_EQ(same.invocation(i).noiseSeed, a.noiseSeed);
        const sieve::trace::KernelInvocation &b = other.invocation(i);
        EXPECT_EQ(b.kernelId, a.kernelId);
        EXPECT_EQ(b.instructions(), a.instructions());
        changed += b.noiseSeed != a.noiseSeed;
    }
    EXPECT_EQ(changed, base.numInvocations());

    sieve::gpu::HardwareExecutor hw(sieve::gpu::ArchConfig::ampereRtx3080());
    EXPECT_EQ(hw.runWorkload(same).totalCycles,
              hw.runWorkload(base).totalCycles);
    EXPECT_NE(hw.runWorkload(other).totalCycles,
              hw.runWorkload(base).totalCycles);

    // Synthesized traces: other contents, the same size.
    sieve::trace::KernelTrace a = sieve::gpusim::synthesizeTrace(base, 0);
    sieve::trace::KernelTrace b = sieve::gpusim::synthesizeTrace(other, 0);
    EXPECT_EQ(b.tracedInstructions(), a.tracedInstructions());
    std::ostringstream textA, textB;
    sieve::trace::writeTrace(a, textA);
    sieve::trace::writeTrace(b, textB);
    EXPECT_NE(textB.str(), textA.str());
}

/** A workload whose passes fail on demand. */
class FlakyWorkload : public BenchWorkload
{
  public:
    explicit FlakyWorkload(size_t failFromPass) : _failFrom(failFromPass) {}
    const char *itemName() const override { return "ops"; }
    const char *opName() const override { return "op"; }
    double tailQuantile() const override { return 0.5; }
    void setup(Context &, std::map<std::string, double> &) override {}
    PassResult
    pass(Context &, bool) override
    {
        PassResult r;
        r.items = 3;
        r.opMs = {1.0, 2.0, 3.0};
        r.opDigests = {"a", "b", "c"};
        r.extraAttempted = 1;
        if (_pass >= _failFrom) {
            r.opDigests[1] = "changed"; // differs from the first pass
            r.opDigests[2] = "!failed"; // failed its own check
            r.failed = 1;               // a check outside the ops
        }
        ++_pass;
        return r;
    }

  private:
    size_t _failFrom;
    size_t _pass = 0;
};

TEST(Failures, AreCountedAgainstAttempts)
{
    EXPECT_EQ(countMismatches({"a", "b"}, {"a", "b"}), 0u);
    EXPECT_EQ(countMismatches({"a", "b"}, {"a", "x"}), 1u);
    EXPECT_EQ(countMismatches({"a", "b"}, {"a"}), 1u);
    EXPECT_EQ(countMismatches({"!a"}, {"!a"}), 1u);

    Options opts;
    opts.workload = "flaky";
    opts.seconds = 0.0; // the minimum of two passes

    FlakyWorkload clean(100);
    RunReport ok = runBenchmark(clean, opts);
    EXPECT_TRUE(ok.correct);
    EXPECT_EQ(ok.attempted, 8u); // 2 passes x (3 ops + 1 check)
    EXPECT_EQ(ok.failed, 0u);

    FlakyWorkload flaky(1);
    RunReport bad = runBenchmark(flaky, opts);
    EXPECT_FALSE(bad.correct);
    EXPECT_EQ(bad.attempted, 8u);
    EXPECT_EQ(bad.failed, 3u); // pass 2: 2 ops + 1 check

    std::string json = resultJson(bad);
    EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": 3"), std::string::npos);
}

} // namespace
} // namespace perfbench
