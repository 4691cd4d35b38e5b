/**
 * @file
 * Oracle tests for the PR-2 hot-path optimizations.
 *
 * Every optimized analysis stage must produce *byte-identical* output
 * to its retained naive reference (stats::reference) — across
 * randomized inputs, degenerate near-constant inputs, and any worker
 * count. These tests are the enforcement arm of that contract; a
 * speedup of an optimized path only counts because these pass.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "gpu/hardware_executor.hh"
#include "profiler/profilers.hh"
#include "stats/kde.hh"
#include "stats/kmeans.hh"
#include "stats/matrix.hh"
#include "stats/pca.hh"
#include "stats/reference.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace sieve::stats {
namespace {

bool
bitsEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

bool
matrixBitsEqual(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (size_t r = 0; r < a.rows(); ++r) {
        if (std::memcmp(a.rowSpan(r).data(), b.rowSpan(r).data(),
                        a.cols() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

/** Mixture sample: tight mode plus sparse wide tail (Tier-3 shape). */
std::vector<double>
mixtureSample(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.9))
            values.push_back(rng.normal(1000.0, 5.0));
        else
            values.push_back(rng.uniform(0.0, 5000.0));
    }
    return values;
}

// ---- the underflow cutoff that justifies the KDE window ------------

TEST(KernelCutoff, ExpUnderflowsToExactZeroBeyondCutoff)
{
    // The windowed density() drops terms with |u| >= kKernelCutoff.
    // That is only bit-safe because exp(-0.5 u^2) is exactly +0.0
    // there: the exponent is below ln(DBL_TRUE_MIN), so a correctly
    // rounded exp() underflows to zero and adding the term to a
    // non-negative accumulator cannot change a single bit.
    double c = KernelDensity::kKernelCutoff;
    EXPECT_EQ(std::exp(-0.5 * c * c), 0.0);
    // ...and the cutoff is not vacuously huge: well inside it the
    // kernel is still a positive (subnormal) contribution.
    EXPECT_GT(std::exp(-0.5 * 38.0 * 38.0), 0.0);
}

// ---- KDE grid ------------------------------------------------------

TEST(PerfOracle, DensityGridMatchesReferenceOnRandomSamples)
{
    ThreadPool pool(8);
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        std::vector<double> sample = mixtureSample(3000, seed);
        std::sort(sample.begin(), sample.end());

        KernelDensity kde(sample);
        double lo = sample.front();
        double hi = sample.back();

        std::vector<double> ref = reference::densityGrid(
            sample, kde.bandwidth(), lo, hi, 256);
        EXPECT_TRUE(bitsEqual(kde.densityGrid(lo, hi, 256), ref))
            << "serial mismatch, seed " << seed;
        EXPECT_TRUE(bitsEqual(kde.densityGrid(lo, hi, 256, &pool), ref))
            << "pooled mismatch, seed " << seed;
    }
}

TEST(PerfOracle, DensityGridMatchesReferenceOnUnsortedSample)
{
    // Unsorted samples skip the binary-search window but keep the
    // underflow-skip; the sum must still match the dense reference,
    // which walks the sample in the same storage order.
    std::vector<double> sample = mixtureSample(2000, 42);
    KernelDensity kde(sample);
    std::vector<double> ref =
        reference::densityGrid(sample, kde.bandwidth(), 0.0, 5000.0, 128);
    EXPECT_TRUE(bitsEqual(kde.densityGrid(0.0, 5000.0, 128), ref));
}

TEST(PerfOracle, DensityGridMatchesReferenceOnDegenerateSamples)
{
    ThreadPool pool(8);
    // Exactly constant, and near-constant with ulp-scale jitter.
    std::vector<double> flat(500, 7.25);
    std::vector<double> jitter;
    for (size_t i = 0; i < 500; ++i)
        jitter.push_back(7.25 + static_cast<double>(i) * 1e-13);

    for (const auto &sample : {flat, jitter}) {
        KernelDensity kde(sample);
        std::vector<double> ref = reference::densityGrid(
            sample, kde.bandwidth(), 7.0, 7.5, 64);
        EXPECT_TRUE(bitsEqual(kde.densityGrid(7.0, 7.5, 64), ref));
        EXPECT_TRUE(bitsEqual(kde.densityGrid(7.0, 7.5, 64, &pool), ref));
    }
}

// ---- stratification ------------------------------------------------

TEST(PerfOracle, StratifyMatchesReferenceOnRandomSamples)
{
    ThreadPool pool(8);
    for (uint64_t seed : {11u, 12u, 13u}) {
        std::vector<double> values = mixtureSample(2000, seed);
        for (double theta : {0.2, 0.5}) {
            std::vector<size_t> ref =
                reference::stratifyByDensity(values, theta);
            EXPECT_EQ(stratifyByDensity(values, theta), ref)
                << "serial mismatch, seed " << seed << " theta " << theta;
            EXPECT_EQ(stratifyByDensity(values, theta, &pool), ref)
                << "pooled mismatch, seed " << seed << " theta " << theta;
        }
    }
}

TEST(PerfOracle, StratifyMatchesReferenceOnDegenerateSamples)
{
    std::vector<double> flat(300, 1000.0);
    std::vector<double> jitter;
    for (size_t i = 0; i < 300; ++i)
        jitter.push_back(1000.0 + static_cast<double>(i % 7) * 1e-10);

    for (const auto &values : {flat, jitter}) {
        std::vector<size_t> ref =
            reference::stratifyByDensity(values, 0.3);
        EXPECT_EQ(stratifyByDensity(values, 0.3), ref);
        EXPECT_EQ(numStrata(ref), 1u);
    }
}

// ---- density valleys -----------------------------------------------

TEST(PerfOracle, ValleyPlateauEmitsExactlyOneCut)
{
    // Two far-apart modes with most mass in the first: the Silverman
    // bandwidth stays near the tight mode's spread, so the kernel
    // window underflows to *exactly* zero across the whole gap — a
    // plateau of bit-equal grid densities. The strict-</<= valley
    // rule must collapse that plateau to a single cut (its left
    // edge), never one cut per flat grid point.
    Rng rng(7);
    std::vector<double> sample;
    for (size_t i = 0; i < 7600; ++i)
        sample.push_back(rng.normal(0.0, 1.0));
    for (size_t i = 0; i < 2400; ++i)
        sample.push_back(rng.normal(1.0e6, 1.0));

    std::vector<double> cuts = densityValleys(sample, 256);
    EXPECT_EQ(cuts.size(), 1u);
    EXPECT_GT(cuts.front(), 10.0);
    EXPECT_LT(cuts.front(), 1.0e6 - 10.0);
}

TEST(PerfOracle, ValleysAreStrictlyAscending)
{
    std::vector<double> values = mixtureSample(3000, 99);
    std::vector<double> cuts = densityValleys(values);
    for (size_t i = 1; i < cuts.size(); ++i)
        EXPECT_LT(cuts[i - 1], cuts[i]);
}

// ---- k-means -------------------------------------------------------

Matrix
randomMatrix(size_t n, size_t d, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(n, d);
    for (size_t r = 0; r < n; ++r) {
        double centre = static_cast<double>(r % 3) * 8.0;
        for (size_t c = 0; c < d; ++c)
            m.at(r, c) = rng.normal(centre, 1.5);
    }
    return m;
}

TEST(PerfOracle, KMeansMatchesReferenceBitForBit)
{
    ThreadPool pool(8);
    for (uint64_t seed : {21u, 22u}) {
        Matrix data = randomMatrix(150, 5, seed);
        for (size_t k : {1u, 3u, 7u}) {
            Rng rng(seed * 1000 + k);
            KMeansResult ref = reference::kMeans(data, k, rng);
            KMeansResult serial = kMeans(data, k, rng);
            KMeansResult pooled = kMeans(data, k, rng, 100, &pool);

            for (const KMeansResult *r : {&serial, &pooled}) {
                EXPECT_EQ(r->assignments, ref.assignments);
                EXPECT_EQ(r->iterations, ref.iterations);
                EXPECT_EQ(r->inertia, ref.inertia); // exact, not near
                EXPECT_TRUE(matrixBitsEqual(r->centroids, ref.centroids));
            }
        }
    }
}

TEST(PerfOracle, KMeansMatchesReferenceOnDegenerateData)
{
    // All-identical observations: every distance ties at zero.
    Matrix data(40, 3);
    for (size_t r = 0; r < data.rows(); ++r)
        for (size_t c = 0; c < data.cols(); ++c)
            data.at(r, c) = 2.5;

    Rng rng(5);
    KMeansResult ref = reference::kMeans(data, 4, rng);
    KMeansResult opt = kMeans(data, 4, rng);
    EXPECT_EQ(opt.assignments, ref.assignments);
    EXPECT_EQ(opt.inertia, ref.inertia);
    EXPECT_TRUE(matrixBitsEqual(opt.centroids, ref.centroids));
}

/** Assert optimized == reference at 1 worker, 8 workers, and with an
 *  explicitly shared KMeansContext. Returns the reference result. */
KMeansResult
expectKMeansMatchesReference(const Matrix &data, size_t k, Rng rng,
                             size_t max_iters = 100)
{
    ThreadPool pool(8);
    KMeansContext ctx = makeKMeansContext(data);
    KMeansResult ref = reference::kMeans(data, k, rng, max_iters);
    KMeansResult serial = kMeans(data, k, rng, max_iters);
    KMeansResult pooled = kMeans(data, k, rng, max_iters, &pool);
    KMeansResult shared = kMeans(data, k, rng, max_iters, &pool, &ctx);

    for (const KMeansResult *r : {&serial, &pooled, &shared}) {
        EXPECT_EQ(r->assignments, ref.assignments);
        EXPECT_EQ(r->iterations, ref.iterations);
        // Exact bits, not near.
        EXPECT_EQ(std::memcmp(&r->inertia, &ref.inertia, sizeof(double)),
                  0)
            << r->inertia << " vs " << ref.inertia;
        EXPECT_TRUE(matrixBitsEqual(r->centroids, ref.centroids));
    }
    return ref;
}

TEST(PerfOracle, KMeansMatchesReferenceWhenCutOffByMaxIters)
{
    // A run stopped by max_iters reports the inertia of its last
    // assignment, made with the centroids *before* the final update,
    // while `centroids` holds the updated ones.
    for (uint64_t seed : {61u, 62u}) {
        Matrix data = randomMatrix(400, 3, seed);
        for (size_t k : {5u, 9u}) {
            Rng rng(seed * 100 + k);
            size_t converged = reference::kMeans(data, k, rng).iterations;
            ASSERT_GT(converged, 4u) << "seed " << seed << " k " << k;
            for (size_t max_iters : {1u, 2u, 3u}) {
                KMeansResult ref = expectKMeansMatchesReference(
                    data, k, rng, max_iters);
                EXPECT_EQ(ref.iterations, max_iters);
            }
        }
    }
}

TEST(PerfOracle, KMeansMatchesReferenceOnPartlyCleanIterations)
{
    // Twelve tight, far-apart blobs of duplicated rows plus a few
    // points strung between two of them. With k above the blob count
    // the seeding splits some blobs, so those clusters trade members
    // for several rounds while the others keep theirs exactly.
    Rng gen(909);
    std::vector<std::vector<double>> rows;
    for (size_t b = 0; b < 12; ++b) {
        double cx = static_cast<double>(b % 4) * 100.0;
        double cy = static_cast<double>(b / 4) * 100.0;
        for (size_t p = 0; p < 10; ++p) {
            std::vector<double> row = {cx + gen.normal(0.0, 2.0),
                                       cy + gen.normal(0.0, 2.0)};
            for (size_t dup = 0; dup < 1 + p % 3; ++dup)
                rows.push_back(row);
        }
    }
    for (size_t p = 1; p < 6; ++p)
        rows.push_back({static_cast<double>(p) * 100.0 / 6.0, 0.0});
    Matrix data = Matrix::fromRows(rows);
    EXPECT_LT(makeKMeansContext(data).numDistinct(), data.rows());

    size_t multi_round = 0;
    for (size_t k : {13u, 14u, 16u}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            KMeansResult ref =
                expectKMeansMatchesReference(data, k, Rng(seed * 17 + k));
            multi_round += ref.iterations > 3;
        }
    }
    EXPECT_GT(multi_round, 0u);

    // More clusters than distinct rows in reach: some stay empty.
    Matrix few(24, 2);
    for (size_t r = 0; r < few.rows(); ++r) {
        few.at(r, 0) = static_cast<double>(r % 4) * 50.0;
        few.at(r, 1) = r % 8 < 4 ? 0.0 : 1.0;
    }
    KMeansResult sparse = expectKMeansMatchesReference(few, 12, Rng(5));
    size_t empty = 0;
    for (size_t size : sparse.clusterSizes())
        empty += size == 0;
    EXPECT_GT(empty, 0u);
}

TEST(PerfOracle, KMeansMatchesReferenceOnAllDuplicatePoints)
{
    // A single distinct row (maximal dedup): the context collapses
    // the whole matrix to one point and every distance ties at zero.
    Matrix data(64, 4);
    for (size_t r = 0; r < data.rows(); ++r)
        for (size_t c = 0; c < data.cols(); ++c)
            data.at(r, c) = -3.75;
    for (size_t k : {1u, 3u, 8u}) {
        KMeansContext ctx = makeKMeansContext(data);
        EXPECT_EQ(ctx.numDistinct(), 1u);
        EXPECT_EQ(ctx.multiplicity[0], data.rows());
        expectKMeansMatchesReference(data, k, Rng(17 + k));
    }
}

TEST(PerfOracle, KMeansMatchesReferenceWhenKExceedsDistinctPoints)
{
    // 30 observations but only 3 bitwise-distinct rows; k = 10 leaves
    // most clusters empty (empty clusters keep their stale centroid).
    Matrix data(30, 3);
    for (size_t r = 0; r < data.rows(); ++r) {
        double v = static_cast<double>(r % 3) * 5.0;
        for (size_t c = 0; c < data.cols(); ++c)
            data.at(r, c) = v + static_cast<double>(c);
    }
    KMeansContext ctx = makeKMeansContext(data);
    EXPECT_EQ(ctx.numDistinct(), 3u);
    for (size_t k : {2u, 3u, 10u})
        expectKMeansMatchesReference(data, k, Rng(31 + k));
}

TEST(PerfOracle, KMeansMatchesReferenceOnEmptyClusterProneData)
{
    // Two tight far-apart blobs with k = 6: seeding necessarily
    // places several centroids inside the same blob, so Lloyd rounds
    // repeatedly empty clusters out.
    Rng gen(404);
    Matrix data(60, 2);
    for (size_t r = 0; r < data.rows(); ++r) {
        double centre = r < 30 ? 0.0 : 1e4;
        data.at(r, 0) = centre + gen.normal(0.0, 0.01);
        data.at(r, 1) = centre + gen.normal(0.0, 0.01);
    }
    for (size_t k : {4u, 6u})
        expectKMeansMatchesReference(data, k, Rng(55 + k));
}

TEST(PerfOracle, KMeansMatchesReferenceOnSinglePoint)
{
    Matrix data(1, 5);
    for (size_t c = 0; c < data.cols(); ++c)
        data.at(0, c) = static_cast<double>(c) * 0.5;
    // k clamps to 1 row regardless of the requested count.
    for (size_t k : {1u, 4u})
        expectKMeansMatchesReference(data, k, Rng(77 + k));
}

TEST(PerfOracle, KMeansContextDedupsBitwiseIdenticalRowsOnly)
{
    // 0.0 vs -0.0 differ bitwise and must stay distinct; exact
    // duplicates must merge with the first occurrence as canonical.
    Matrix data = Matrix::fromRows({{1.0, 0.0},
                                    {1.0, -0.0},
                                    {1.0, 0.0},
                                    {2.0, 3.0}});
    KMeansContext ctx = makeKMeansContext(data);
    EXPECT_EQ(ctx.numDistinct(), 3u);
    EXPECT_EQ(ctx.distinctOf[0], ctx.distinctOf[2]);
    EXPECT_NE(ctx.distinctOf[0], ctx.distinctOf[1]);
    EXPECT_EQ(ctx.firstRow[ctx.distinctOf[2]], 0u);
    EXPECT_EQ(ctx.multiplicity[ctx.distinctOf[0]], 2u);
}

// ---- PCA fit --------------------------------------------------------

TEST(PerfOracle, PcaFitMatchesReferenceBitForBit)
{
    for (uint64_t seed : {61u, 62u}) {
        Matrix data = randomMatrix(120, 6, seed);
        Pca pca(data, 0.9);
        reference::PcaFit ref = reference::pcaFit(data, 0.9);
        EXPECT_TRUE(bitsEqual(pca.eigenvalues(), ref.eigenvalues));
        EXPECT_EQ(pca.explainedVariance(), ref.explained);
        EXPECT_EQ(pca.numComponents(), ref.components.cols());
    }
}

TEST(KMeansResult_, ClosestToCentroidPrefersLowestIndexOnExactTie)
{
    // Four corners of a square, one cluster: the centroid is the
    // centre and all four observations are exactly equidistant. The
    // documented invariant: the lowest observation index wins.
    Matrix data = Matrix::fromRows(
        {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0}});
    KMeansResult result;
    result.assignments = {0, 0, 0, 0};
    result.centroids = Matrix::fromRows({{1.0, 1.0}});
    std::vector<size_t> reps = result.closestToCentroid(data);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_EQ(reps[0], 0u);
}

} // namespace
} // namespace sieve::stats

// ---- profiler single-pass accumulation -----------------------------

namespace sieve::profiler {
namespace {

TEST(ProfilerSinglePass, SharedAccumulationMatchesIndependentWalks)
{
    auto spec = workloads::findSpec("gru", 1500);
    ASSERT_TRUE(spec.has_value());
    trace::Workload wl = workloads::generateWorkload(*spec);
    gpu::HardwareExecutor hw(gpu::ArchConfig::ampereRtx3080());
    gpu::WorkloadResult golden = hw.runWorkload(wl);

    ProfilingCostParams params;
    GoldenCostSums sums = accumulateGoldenCosts(wl, golden, params);

    NvbitProfiler nvbit(params);
    NsightProfiler nsight(params);
    // Exact equality: the single shared walk feeds each accumulator
    // the same terms in the same order as the standalone loops did.
    EXPECT_EQ(nvbit.collectionHours(wl, golden),
              nvbit.hoursFromInstrumentedUs(wl, sums.nvbitInstrumentedUs));
    EXPECT_EQ(nsight.collectionHours(wl, golden),
              nsight.hoursFromPerInvocationUs(
                  wl, sums.nsightPerInvocationUs));

    ProfilingTimes times = estimateProfilingTimes(wl, golden, params);
    EXPECT_EQ(times.nvbitHours, nvbit.collectionHours(wl, golden));
    EXPECT_EQ(times.nsightHours, nsight.collectionHours(wl, golden));
}

} // namespace
} // namespace sieve::profiler
