/**
 * @file
 * Tests for the PKS baseline: PCA + k-means clustering, k selection
 * against the golden reference, representative-selection policies,
 * and the count-weighted cycle prediction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "gpu/hardware_executor.hh"
#include "sampling/evaluation.hh"
#include "sampling/pks.hh"
#include "sampling/sieve.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace sieve::sampling {
namespace {

struct Prepared
{
    trace::Workload workload;
    gpu::WorkloadResult golden;
};

Prepared
prepare(const std::string &name, size_t cap = 4000)
{
    auto spec = workloads::findSpec(name, cap);
    Prepared p{workloads::generateWorkload(*spec), {}};
    gpu::HardwareExecutor hw(gpu::ArchConfig::ampereRtx3080());
    p.golden = hw.runWorkload(p.workload);
    return p;
}

TEST(PksSampler, ChoosesKWithinLimit)
{
    Prepared p = prepare("rfl");
    PksSampler pks;
    SamplingResult result = pks.sample(p.workload, p.golden.perInvocation);
    EXPECT_GE(result.chosenK, 1u);
    EXPECT_LE(result.chosenK, 20u);
    EXPECT_LE(result.strata.size(), result.chosenK);
}

TEST(PksSampler, ClustersPartitionInvocations)
{
    Prepared p = prepare("gms");
    PksSampler pks;
    SamplingResult result = pks.sample(p.workload, p.golden.perInvocation);

    std::vector<int> covered(p.workload.numInvocations(), 0);
    for (const auto &s : result.strata) {
        for (size_t idx : s.members)
            ++covered[idx];
        // PKS clusters may mix kernels; kernelId stays unset.
        EXPECT_EQ(s.kernelId, Stratum::kNoKernel);
        EXPECT_EQ(s.tier, Tier::None);
    }
    EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                            [](int c) { return c == 1; }));
}

TEST(PksSampler, WeightsAreInvocationShares)
{
    Prepared p = prepare("gru");
    PksSampler pks;
    SamplingResult result = pks.sample(p.workload, p.golden.perInvocation);
    double total = 0.0;
    for (const auto &s : result.strata) {
        EXPECT_NEAR(s.weight,
                    static_cast<double>(s.members.size()) /
                        static_cast<double>(
                            p.workload.numInvocations()),
                    1e-12);
        total += s.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PksSampler, PredictionIsCountWeightedSum)
{
    Prepared p = prepare("gru");
    PksSampler pks;
    SamplingResult result = pks.sample(p.workload, p.golden.perInvocation);
    double expected = 0.0;
    for (const auto &s : result.strata) {
        expected += static_cast<double>(s.members.size()) *
                    p.golden.perInvocation[s.representative].cycles;
    }
    EXPECT_NEAR(pks.predictCycles(result, p.golden.perInvocation),
                expected, 1e-6 * expected);
}

TEST(PksSampler, FirstChronologicalPicksEarliestMember)
{
    Prepared p = prepare("gms");
    PksConfig cfg;
    cfg.selection = PksSelection::FirstChronological;
    SamplingResult result =
        PksSampler(cfg).sample(p.workload, p.golden.perInvocation);
    for (const auto &s : result.strata)
        EXPECT_EQ(s.representative,
                  *std::min_element(s.members.begin(), s.members.end()));
}

TEST(PksSampler, RepresentativesAreClusterMembers)
{
    for (PksSelection sel :
         {PksSelection::FirstChronological, PksSelection::Random,
          PksSelection::Centroid}) {
        Prepared p = prepare("rfl");
        PksConfig cfg;
        cfg.selection = sel;
        SamplingResult result =
            PksSampler(cfg).sample(p.workload, p.golden.perInvocation);
        for (const auto &s : result.strata) {
            EXPECT_TRUE(std::find(s.members.begin(), s.members.end(),
                                  s.representative) != s.members.end())
                << pksSelectionName(sel);
        }
    }
}

TEST(PksSampler, Deterministic)
{
    Prepared p = prepare("lmr");
    PksSampler pks;
    SamplingResult a = pks.sample(p.workload, p.golden.perInvocation);
    SamplingResult b = pks.sample(p.workload, p.golden.perInvocation);
    EXPECT_EQ(a.chosenK, b.chosenK);
    ASSERT_EQ(a.strata.size(), b.strata.size());
    for (size_t i = 0; i < a.strata.size(); ++i) {
        EXPECT_EQ(a.strata[i].representative,
                  b.strata[i].representative);
        EXPECT_EQ(a.strata[i].members, b.strata[i].members);
    }
}

TEST(PksSampler, MatchesSerialReferencePipeline)
{
    // lmr picks k = 1; lmc and spt run the most Lloyd iterations of
    // the challenging set, so their sweeps exercise the bounds, the
    // dirty-cluster sums and the final inertia at every k.
    for (const char *name : {"lmr", "lmc", "spt"}) {
        Prepared p = prepare(name);
        PksSampler pks;
        SamplingResult ref =
            pks.sampleReference(p.workload, p.golden.perInvocation);
        for (size_t workers : {1u, 8u}) {
            SCOPED_TRACE(std::string(name) + " at " +
                         std::to_string(workers) + " workers");
            ThreadPool pool(workers);
            SamplingResult opt =
                pks.sample(p.workload, p.golden.perInvocation, &pool);
            EXPECT_EQ(opt.method, ref.method);
            EXPECT_EQ(opt.chosenK, ref.chosenK);
            ASSERT_EQ(opt.strata.size(), ref.strata.size());
            for (size_t i = 0; i < opt.strata.size(); ++i) {
                EXPECT_EQ(opt.strata[i].members, ref.strata[i].members);
                EXPECT_EQ(opt.strata[i].representative,
                          ref.strata[i].representative);
                EXPECT_EQ(opt.strata[i].weight, ref.strata[i].weight);
            }
        }
    }
}

TEST(PksSampler, AllZeroGoldenFallsBackToAbsoluteError)
{
    // A golden reference with zero cycles everywhere must not poison
    // the k sweep with 0/0 = NaN relative errors: the sampler falls
    // back to absolute error and still returns a valid clustering
    // (identical to the serial reference pipeline under the same
    // fallback).
    Prepared p = prepare("gru");
    std::vector<gpu::KernelResult> zero = p.golden.perInvocation;
    for (auto &r : zero)
        r.cycles = 0;

    PksSampler pks;
    SamplingResult result = pks.sample(p.workload, zero);
    EXPECT_GE(result.chosenK, 1u);
    EXPECT_FALSE(result.strata.empty());
    size_t members = 0;
    for (const auto &stratum : result.strata)
        members += stratum.members.size();
    EXPECT_EQ(members, p.workload.numInvocations());

    SamplingResult ref = pks.sampleReference(p.workload, zero);
    EXPECT_EQ(result.chosenK, ref.chosenK);
    ASSERT_EQ(result.strata.size(), ref.strata.size());
    for (size_t i = 0; i < result.strata.size(); ++i)
        EXPECT_EQ(result.strata[i].members, ref.strata[i].members);
}

TEST(PksSampler, MethodNameEncodesPolicy)
{
    Prepared p = prepare("gru");
    PksConfig cfg;
    cfg.selection = PksSelection::Centroid;
    SamplingResult result =
        PksSampler(cfg).sample(p.workload, p.golden.perInvocation);
    EXPECT_EQ(result.method, "pks-centroid");
}

TEST(PksSamplerDeathTest, GoldenSizeMismatchIsFatal)
{
    Prepared p = prepare("gru");
    std::vector<gpu::KernelResult> truncated(
        p.golden.perInvocation.begin(),
        p.golden.perInvocation.begin() + 10);
    PksSampler pks;
    EXPECT_EXIT(pks.sample(p.workload, truncated),
                ::testing::ExitedWithCode(1), "golden");
}

TEST(PksSamplerDeathTest, BadConfigIsFatal)
{
    PksConfig zero_k;
    zero_k.maxK = 0;
    EXPECT_EXIT(PksSampler{zero_k}, ::testing::ExitedWithCode(1),
                "maxK");
    PksConfig bad_var;
    bad_var.varianceToKeep = 1.5;
    EXPECT_EXIT(PksSampler{bad_var}, ::testing::ExitedWithCode(1),
                "variance");
}

// --- evaluation metrics ---

TEST(Evaluation, SpeedupAndErrorMath)
{
    // Two strata; representatives cost 10 + 40 cycles; total 1000.
    SamplingResult result;
    result.method = "test";
    Stratum s1;
    s1.members = {0, 1, 2};
    s1.representative = 0;
    Stratum s2;
    s2.members = {3, 4};
    s2.representative = 3;
    result.strata = {s1, s2};

    std::vector<gpu::KernelResult> golden(5);
    golden[0].cycles = 10.0;
    golden[1].cycles = 200.0;
    golden[2].cycles = 300.0;
    golden[3].cycles = 40.0;
    golden[4].cycles = 450.0;

    EXPECT_NEAR(simulationSpeedup(result, golden), 1000.0 / 50.0,
                1e-12);

    MethodEvaluation eval = evaluate(result, 900.0, golden);
    EXPECT_NEAR(eval.error, 0.1, 1e-12);
    EXPECT_NEAR(eval.measuredCycles, 1000.0, 1e-12);
    EXPECT_EQ(eval.numRepresentatives, 2u);
}

TEST(Evaluation, ClusterCovIsCountWeighted)
{
    SamplingResult result;
    Stratum uniform;
    uniform.members = {0, 1};
    uniform.representative = 0;
    Stratum spread;
    spread.members = {2, 3};
    spread.representative = 2;
    result.strata = {uniform, spread};

    std::vector<gpu::KernelResult> golden(4);
    golden[0].cycles = 100.0;
    golden[1].cycles = 100.0; // CoV 0
    golden[2].cycles = 100.0;
    golden[3].cycles = 300.0; // CoV 0.5

    EXPECT_NEAR(weightedClusterCycleCov(result, golden), 0.25, 1e-9);
}

TEST(Evaluation, PksDispersionExceedsSieveOnChallengingWorkload)
{
    // The Fig. 4 relationship on a real (generated) workload.
    Prepared p = prepare("dcg", 6000);
    SieveSampler sieve;
    PksSampler pks;
    SamplingResult s = sieve.sample(p.workload);
    SamplingResult k = pks.sample(p.workload, p.golden.perInvocation);
    double sieve_cov =
        weightedClusterCycleCov(s, p.golden.perInvocation);
    double pks_cov = weightedClusterCycleCov(k, p.golden.perInvocation);
    EXPECT_LT(sieve_cov, pks_cov);
}

} // namespace
} // namespace sieve::sampling
