/**
 * @file
 * Tests for kernel density estimation and density-valley
 * stratification — the engine behind Sieve's Tier-3 handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "stats/descriptive.hh"
#include "stats/histogram.hh"
#include "stats/kde.hh"

namespace sieve::stats {
namespace {

std::vector<double>
bimodalSample(size_t n, double mode_a, double mode_b, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        double centre = rng.bernoulli(0.5) ? mode_a : mode_b;
        out.push_back(rng.normal(centre, centre * 0.02));
    }
    return out;
}

TEST(Kde, SilvermanBandwidthPositive)
{
    Rng rng(1);
    std::vector<double> sample;
    for (int i = 0; i < 200; ++i)
        sample.push_back(rng.normal(10.0, 2.0));
    double h = KernelDensity::silvermanBandwidth(sample);
    EXPECT_GT(h, 0.0);
    EXPECT_LT(h, 2.0); // far below the raw stddev for n = 200
}

TEST(Kde, DegenerateSampleStillHasBandwidth)
{
    std::vector<double> constant(50, 5.0);
    EXPECT_GT(KernelDensity::silvermanBandwidth(constant), 0.0);
}

TEST(Kde, DensityPeaksAtMode)
{
    Rng rng(2);
    std::vector<double> sample;
    for (int i = 0; i < 500; ++i)
        sample.push_back(rng.normal(0.0, 1.0));
    KernelDensity kde(sample);
    EXPECT_GT(kde.density(0.0), kde.density(3.0));
    EXPECT_GT(kde.density(0.0), kde.density(-3.0));
}

TEST(Kde, DensityIntegratesToOne)
{
    Rng rng(3);
    std::vector<double> sample;
    for (int i = 0; i < 300; ++i)
        sample.push_back(rng.normal(5.0, 1.0));
    KernelDensity kde(sample);
    // Trapezoid rule over +/- 6 sigma.
    double lo = -1.0;
    double hi = 11.0;
    size_t n = 2000;
    double step = (hi - lo) / static_cast<double>(n);
    double integral = 0.0;
    for (size_t i = 0; i <= n; ++i) {
        double w = (i == 0 || i == n) ? 0.5 : 1.0;
        integral += w * kde.density(lo + step * static_cast<double>(i));
    }
    integral *= step;
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, ValleysSeparateWellSplitModes)
{
    auto sample = bimodalSample(600, 100.0, 1000.0, 4);
    auto cuts = densityValleys(sample);
    ASSERT_FALSE(cuts.empty());
    // At least one cut falls strictly between the modes.
    bool between = std::any_of(cuts.begin(), cuts.end(), [](double c) {
        return c > 150.0 && c < 900.0;
    });
    EXPECT_TRUE(between);
}

TEST(Kde, UnimodalHasFewValleys)
{
    Rng rng(5);
    std::vector<double> sample;
    for (int i = 0; i < 500; ++i)
        sample.push_back(rng.normal(50.0, 5.0));
    auto cuts = densityValleys(sample);
    EXPECT_LE(cuts.size(), 2u);
}

TEST(Kde, ConstantSampleHasNoValleys)
{
    std::vector<double> constant(100, 7.0);
    EXPECT_TRUE(densityValleys(constant).empty());
}

TEST(Stratify, ConstantSampleSingleStratum)
{
    std::vector<double> constant(64, 42.0);
    auto labels = stratifyByDensity(constant, 0.4);
    EXPECT_EQ(numStrata(labels), 1u);
}

TEST(Stratify, BimodalSplitsIntoTwo)
{
    auto sample = bimodalSample(400, 100.0, 1000.0, 6);
    auto labels = stratifyByDensity(sample, 0.4);
    EXPECT_EQ(numStrata(labels), 2u);
    // Values below 500 share a label; values above share the other.
    size_t low_label = labels[std::min_element(sample.begin(),
                                               sample.end()) -
                              sample.begin()];
    for (size_t i = 0; i < sample.size(); ++i) {
        if (sample[i] < 500.0)
            EXPECT_EQ(labels[i], low_label);
        else
            EXPECT_NE(labels[i], low_label);
    }
}

TEST(Stratify, LabelsAreDenseAndOrdered)
{
    auto sample = bimodalSample(300, 10.0, 200.0, 7);
    auto labels = stratifyByDensity(sample, 0.3);
    size_t k = numStrata(labels);
    // Every label in [0, k) occurs.
    std::vector<bool> seen(k, false);
    for (size_t l : labels)
        seen[l] = true;
    for (size_t s = 0; s < k; ++s)
        EXPECT_TRUE(seen[s]) << "label " << s << " unused";
    // Strata are ordered by value range.
    for (size_t i = 0; i < sample.size(); ++i) {
        for (size_t j = 0; j < sample.size(); ++j) {
            if (labels[i] < labels[j]) {
                EXPECT_LE(sample[i], sample[j]);
            }
        }
    }
}

/**
 * The central stratification invariant (paper Section III-B): every
 * stratum's CoV stays below the threshold — across distribution
 * shapes and theta values.
 */
struct StratifyCase
{
    const char *name;
    uint64_t seed;
    int shape; // 0 bimodal, 1 lognormal, 2 drift, 3 trimodal
    double theta;
};

// Without a printer gtest lists the case as a byte dump of the struct,
// which holds the address of `name` and padding bytes: the listed test
// names would then change from one process to the next.
void
PrintTo(const StratifyCase &c, std::ostream *os)
{
    *os << c.name << " seed=" << c.seed << " shape=" << c.shape
        << " theta=" << c.theta;
}

class StratifyInvariant : public ::testing::TestWithParam<StratifyCase>
{
  public:
    static std::vector<double>
    makeSample(const StratifyCase &c)
    {
        Rng rng(c.seed);
        std::vector<double> out;
        switch (c.shape) {
          case 0:
            return bimodalSample(500, 50.0, 700.0, c.seed);
          case 1:
            for (int i = 0; i < 500; ++i)
                out.push_back(rng.logNormal(10.0, 0.9));
            return out;
          case 2:
            for (int i = 0; i < 500; ++i) {
                out.push_back(1000.0 * (1.0 + 5.0 * i / 499.0) *
                              rng.logNormal(0.0, 0.02));
            }
            return out;
          default:
            for (int i = 0; i < 600; ++i) {
                double mode = (i % 3 == 0) ? 10.0
                              : (i % 3 == 1) ? 100.0
                                             : 1500.0;
                out.push_back(rng.normal(mode, mode * 0.03));
            }
            return out;
        }
    }
};

TEST_P(StratifyInvariant, EveryStratumBelowTheta)
{
    const StratifyCase &c = GetParam();
    auto sample = makeSample(c);
    auto labels = stratifyByDensity(sample, c.theta);
    size_t k = numStrata(labels);

    for (size_t s = 0; s < k; ++s) {
        std::vector<double> members;
        for (size_t i = 0; i < sample.size(); ++i) {
            if (labels[i] == s)
                members.push_back(sample[i]);
        }
        ASSERT_FALSE(members.empty());
        double cov = coefficientOfVariation(members);
        bool degenerate =
            *std::min_element(members.begin(), members.end()) ==
            *std::max_element(members.begin(), members.end());
        EXPECT_TRUE(cov < c.theta || degenerate)
            << c.name << ": stratum " << s << " CoV " << cov
            << " >= theta " << c.theta;
    }
}

TEST_P(StratifyInvariant, GreedyMergeIsMaximal)
{
    // No two adjacent strata could be merged without violating theta
    // (the "minimize the number of strata" goal).
    const StratifyCase &c = GetParam();
    auto sample = makeSample(c);
    auto labels = stratifyByDensity(sample, c.theta);
    size_t k = numStrata(labels);

    for (size_t s = 0; s + 1 < k; ++s) {
        std::vector<double> merged;
        for (size_t i = 0; i < sample.size(); ++i) {
            if (labels[i] == s || labels[i] == s + 1)
                merged.push_back(sample[i]);
        }
        EXPECT_GE(coefficientOfVariation(merged), c.theta)
            << c.name << ": strata " << s << " and " << s + 1
            << " could merge";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StratifyInvariant,
    ::testing::Values(
        StratifyCase{"bimodal_theta04", 11, 0, 0.4},
        StratifyCase{"bimodal_theta01", 12, 0, 0.1},
        StratifyCase{"lognormal_theta04", 13, 1, 0.4},
        StratifyCase{"lognormal_theta02", 14, 1, 0.2},
        StratifyCase{"drift_theta04", 15, 2, 0.4},
        StratifyCase{"drift_theta07", 16, 2, 0.7},
        StratifyCase{"trimodal_theta04", 17, 3, 0.4},
        StratifyCase{"trimodal_theta10", 18, 3, 1.0}),
    [](const ::testing::TestParamInfo<StratifyCase> &info) {
        return std::string(info.param.name);
    });

// --- histogram ---

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-5.0);  // clamps into bin 0
    h.add(100.0); // clamps into bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.totalCount(), 4u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.5);
}

TEST(Histogram, FitSpansSample)
{
    auto h = Histogram::fit({1.0, 2.0, 3.0}, 4);
    EXPECT_EQ(h.totalCount(), 3u);
    EXPECT_DOUBLE_EQ(h.binLow(0), 1.0);
}

TEST(Histogram, ModeBin)
{
    Histogram h(0.0, 3.0, 3);
    h.addAll({0.5, 1.5, 1.6, 2.5});
    EXPECT_EQ(h.modeBin(), 1u);
}

} // namespace
} // namespace sieve::stats
