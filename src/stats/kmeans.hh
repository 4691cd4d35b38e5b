/**
 * @file
 * k-means clustering with k-means++ seeding.
 *
 * PKS groups kernel invocations with k-means in the PCA-reduced
 * feature space, evaluating every k up to 20 and choosing the one that
 * minimizes the prediction error against a golden hardware reference
 * (paper Section II-B). This module provides the clustering kernel;
 * the k selection policy lives in the PKS sampler.
 */

#ifndef SIEVE_STATS_KMEANS_HH
#define SIEVE_STATS_KMEANS_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "stats/matrix.hh"

namespace sieve::stats {

/** Result of one k-means run. */
struct KMeansResult
{
    /** Cluster index per observation, in [0, k). */
    std::vector<size_t> assignments;
    /** Cluster centroids (k x features). */
    Matrix centroids;
    /** Sum of squared distances to the assigned centroid. */
    double inertia = 0.0;
    /** Lloyd iterations executed before convergence. */
    size_t iterations = 0;

    /** Number of clusters (some may be empty after convergence). */
    size_t k() const { return centroids.rows(); }

    /** Observation counts per cluster. */
    std::vector<size_t> clusterSizes() const;

    /**
     * Index of the observation closest to each cluster's centroid
     * (the "centroid representative" selection policy of Fig. 5).
     * Empty clusters yield npos entries.
     *
     * Tie-break invariant: when two members of a cluster are exactly
     * equidistant from the centroid, the *lowest observation index*
     * is selected. Callers (and the determinism rule) rely on this
     * being a property of the distances, not of iteration order.
     */
    std::vector<size_t> closestToCentroid(const Matrix &data) const;

    static constexpr size_t npos = static_cast<size_t>(-1);
};

/**
 * Precomputed, data-dependent (but k- and seed-independent) state
 * shared across every k-means run over the same observation matrix:
 * the bitwise-distinct rows with their duplicate multiplicities, the
 * Euclidean norm of each distinct row, a contiguous copy of the
 * distinct rows, and the observations of each distinct row.
 *
 * PKS feature matrices are duplicate-heavy (content-identical kernel
 * invocations produce bitwise-equal feature rows, and the row-wise
 * PCA projection preserves that equality), and the PKS k selection
 * runs k-means for every k = 1..maxK over the *same* projection — so
 * the sweep builds this context once and every run reuses it. All
 * per-row pure computations (distances, argmins) are evaluated once
 * per distinct row and fanned out to the duplicates; the norms feed
 * the triangle-inequality screens of the accelerated assignment.
 */
struct KMeansContext
{
    /** Observation row -> distinct-row id. */
    std::vector<size_t> distinctOf;
    /** Distinct-row id -> first observation row with those bytes. */
    std::vector<size_t> firstRow;
    /** Distinct-row id -> duplicate multiplicity (fan-out weight). */
    std::vector<uint64_t> multiplicity;
    /** Distinct-row id -> Euclidean norm of the row. */
    std::vector<double> pointNorms;
    /** Distinct rows, row-major (numDistinct() x dims), same bytes. */
    std::vector<double> points;
    /**
     * Distinct row d owns observations
     * rowObservations[rowStart[d] .. rowStart[d + 1]), ascending.
     */
    std::vector<size_t> rowStart;
    std::vector<size_t> rowObservations;

    size_t numPoints() const { return distinctOf.size(); }
    size_t numDistinct() const { return firstRow.size(); }
};

/** Build the shared context for a data matrix (rows = observations). */
KMeansContext makeKMeansContext(const Matrix &data);

/**
 * Run k-means (k-means++ seeding, Lloyd refinement), bit-identical to
 * stats::reference::kMeans (DESIGN.md §8) at any worker count. The
 * work per Lloyd iteration follows what changed:
 *
 *  - Assignment is Hamerly-pruned per distinct row. An inflated upper
 *    bound on the distance to the assigned centroid and a deflated
 *    lower bound on every other centroid skip the row with no
 *    distance at all; failing that, the upper bound is tightened to
 *    the exact distance and tested again. A prune only happens when
 *    the assigned centroid is provably the *unique strict* argmin,
 *    which is what the reference's ascending strict-< scan selects;
 *    otherwise the row runs that very scan.
 *  - The bounds decay by the centroid movements when a row is
 *    visited, not in a pass of their own.
 *  - Only dirty clusters (one a row entered or left) re-sum their
 *    members, still in observation order. A clean cluster would fold
 *    the same values in the same order, so its centroid keeps its
 *    bits and does not move.
 *  - The inertia is summed once, in observation order, against the
 *    centroids the final assignment used.
 *
 * Duplicate rows share one evaluation throughout.
 *
 * @param data observations (rows) in feature space
 * @param k number of clusters; clamped to the number of rows
 * @param rng deterministic random stream for seeding
 * @param max_iters Lloyd iteration cap
 * @param pool optional worker pool for seeding and assignment
 * @param context optional precomputed context for `data` (built
 *        internally when absent; pass one to amortize it across a
 *        k sweep)
 */
KMeansResult kMeans(const Matrix &data, size_t k, Rng rng,
                    size_t max_iters = 100, ThreadPool *pool = nullptr,
                    const KMeansContext *context = nullptr);

/** Squared Euclidean distance between a data row and a centroid row. */
double squaredDistance(const Matrix &a, size_t row_a, const Matrix &b,
                       size_t row_b);

} // namespace sieve::stats

#endif // SIEVE_STATS_KMEANS_HH
