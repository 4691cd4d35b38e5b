/**
 * @file
 * Retained naive reference implementations of the optimized analysis
 * hot paths.
 *
 * PR 2 rewrote the KDE grid evaluation, the density stratification,
 * and the k-means assignment loop for speed under the constraint that
 * every output stays byte-identical. These are the originals, kept
 * verbatim as the oracles of tests/test_perf_oracle.cc and
 * tests/test_pks_sampler.cc, which assert the optimized paths produce
 * bit-for-bit identical results across randomized inputs.
 *
 * Nothing in the production pipeline calls into this namespace; do
 * not "optimize" these — their entire value is being the slow,
 * obviously-correct baseline.
 */

#ifndef SIEVE_STATS_REFERENCE_HH
#define SIEVE_STATS_REFERENCE_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "stats/kmeans.hh"
#include "stats/matrix.hh"

namespace sieve::stats::reference {

/** Output of the reference PCA fit (mirrors the Pca accessors). */
struct PcaFit
{
    std::vector<double> means;
    std::vector<double> invStddevs;
    /** Eigenvalues of all components, descending. */
    std::vector<double> eigenvalues;
    /** features x retained-components projection. */
    Matrix components;
    /** Fraction of variance explained by the retained components. */
    double explained = 0.0;
};

/**
 * Naive PCA fit: bounds-checked Matrix::at element loops for the
 * standardization and an entry-at-a-time covariance, then the same
 * jacobiEigen and component-selection logic as stats::Pca. Every
 * accumulator receives its terms in the same order as the optimized
 * row-major span passes, so the fit is bit-identical to Pca — the
 * oracle tests assert it.
 */
PcaFit pcaFit(const Matrix &data, double variance_to_keep = 0.9);

/**
 * Dense O(n * points) KDE grid: every grid point sums the Gaussian
 * kernel over the *entire* sample in storage order (the pre-PR-2
 * KernelDensity::densityGrid).
 *
 * @param bandwidth must be positive (callers pass
 *        KernelDensity::silvermanBandwidth to match production).
 */
std::vector<double> densityGrid(const std::vector<double> &sample,
                                double bandwidth, double lo, double hi,
                                size_t points);

/**
 * Pre-PR-2 stratifyByDensity: dense KDE valleys plus per-decision
 * Welford CoV passes (O(segment) per split/merge query).
 */
std::vector<size_t> stratifyByDensity(const std::vector<double> &values,
                                      double max_cov);

/**
 * Pre-PR-2 kMeans: k-means++ seeding plus Lloyd iterations whose
 * assignment step computes full squared distances through
 * bounds-checked Matrix::at for every (point, centroid) pair.
 */
KMeansResult kMeans(const Matrix &data, size_t k, Rng rng,
                    size_t max_iters = 100);

} // namespace sieve::stats::reference

#endif // SIEVE_STATS_REFERENCE_HH
