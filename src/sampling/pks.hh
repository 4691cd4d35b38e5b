/**
 * @file
 * Principal Kernel Selection (PKS) — the state-of-the-art baseline
 * (Baddouh et al., MICRO 2021), as described in paper Section II-A.
 *
 * Pipeline:
 *  1. Profile all 12 microarchitecture-independent characteristics
 *     per kernel invocation (Table II).
 *  2. Standardize and apply PCA to reduce dimensionality.
 *  3. k-means-cluster the invocations in the reduced space. The
 *     cluster count k is chosen by evaluating every k up to 20 and
 *     keeping the one that minimizes prediction error against a
 *     golden cycle count measured on real hardware — the
 *     hardware-dependence the paper criticizes (Section II-B).
 *  4. Select one representative invocation per cluster: first
 *     chronological by default; random and closest-to-centroid are
 *     the alternatives studied in Fig. 5.
 *  5. Predict application cycles as the sum over clusters of
 *     (cluster invocation count) x (representative cycle count).
 */

#ifndef SIEVE_SAMPLING_PKS_HH
#define SIEVE_SAMPLING_PKS_HH

#include <cstdint>
#include <vector>

#include "common/thread_pool.hh"
#include "gpu/hardware_executor.hh"
#include "sampling/sample.hh"
#include "trace/workload.hh"

namespace sieve::sampling {

/** Representative selection policies studied in Fig. 5. */
enum class PksSelection : uint8_t {
    FirstChronological, //!< PKS default ("PKS-first")
    Random,             //!< uniform random cluster member
    Centroid,           //!< member closest to the cluster centroid
};

/** Name of a PKS selection policy. */
const char *pksSelectionName(PksSelection s);

/** Configuration for the PKS sampler. */
struct PksConfig
{
    /** Maximum cluster count evaluated during k selection. */
    size_t maxK = 20;

    /** Fraction of variance PCA must retain. */
    double varianceToKeep = 0.9;

    /** Representative selection policy. */
    PksSelection selection = PksSelection::FirstChronological;

    /** Seed for k-means++ and random selection. */
    uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/** The PKS clustering sampler. */
class PksSampler
{
  public:
    explicit PksSampler(PksConfig config = {});

    const PksConfig &config() const { return _config; }

    /**
     * Cluster a workload and select representatives.
     *
     * The standardized/PCA-projected feature matrix is computed once
     * and shared across the whole k sweep; with a pool, the sweep's
     * independent k evaluations fan out via parallelMap (each k
     * derives its randomness from per-k split streams, so the chosen
     * k and clustering are byte-identical at any worker count).
     *
     * @param workload the profiled workload
     * @param golden per-invocation golden cycle counts measured on
     *        real hardware — required by PKS' k-selection step. Must
     *        align index-for-index with workload.invocations().
     * @param pool optional worker pool for the k sweep
     */
    SamplingResult sample(
        const trace::Workload &workload,
        const std::vector<gpu::KernelResult> &golden,
        ThreadPool *pool = nullptr) const;

    /**
     * Retained serial baseline of sample(): the same pipeline with
     * the k sweep run serially over stats::reference::kMeans (no row
     * dedup, no bounds pruning, no shared context). Byte-identical to
     * sample() by the determinism contract, which
     * PksSampler.MatchesSerialReferencePipeline asserts at 1 and 8
     * workers. Not called by the production pipeline.
     */
    SamplingResult sampleReference(
        const trace::Workload &workload,
        const std::vector<gpu::KernelResult> &golden) const;

    /**
     * PKS prediction: weighted sum of representative cycle counts
     * with invocation-count weights (Section II-A).
     */
    double predictCycles(
        const SamplingResult &result,
        const std::vector<gpu::KernelResult> &per_invocation) const;

  private:
    PksConfig _config;
};

} // namespace sieve::sampling

#endif // SIEVE_SAMPLING_PKS_HH
