#include "stats/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace sieve::stats {

namespace {

/** Squared Euclidean distance of two raw rows; the one definition of
 *  the arithmetic, so every caller gets the same bits. */
inline double
rowDistance(const double *x, const double *y, size_t dims)
{
    double sum = 0.0;
    for (size_t c = 0; c < dims; ++c) {
        double d = x[c] - y[c];
        sum += d * d;
    }
    return sum;
}

} // namespace

double
squaredDistance(const Matrix &a, size_t row_a, const Matrix &b,
                size_t row_b)
{
    SIEVE_ASSERT(a.cols() == b.cols(), "dimension mismatch ", a.cols(),
                 " vs ", b.cols());
    return rowDistance(a.rowSpan(row_a).data(), b.rowSpan(row_b).data(),
                       a.cols());
}

std::vector<size_t>
KMeansResult::clusterSizes() const
{
    std::vector<size_t> sizes(k(), 0);
    for (size_t c : assignments)
        ++sizes[c];
    return sizes;
}

std::vector<size_t>
KMeansResult::closestToCentroid(const Matrix &data) const
{
    std::vector<size_t> best(k(), npos);
    std::vector<double> best_dist(k(),
                                  std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < assignments.size(); ++i) {
        size_t c = assignments[i];
        double d = squaredDistance(data, i, centroids, c);
        // Explicit tie-break: on an exactly equal distance, keep the
        // lowest observation index. The strict `<` alone would only
        // achieve this as a side effect of the ascending scan; spelling
        // the invariant out keeps it true under any future reordering
        // (e.g. a parallel scan with per-chunk minima).
        if (d < best_dist[c] ||
            (d == best_dist[c] && i < best[c])) {
            best_dist[c] = d;
            best[c] = i;
        }
    }
    return best;
}

KMeansContext
makeKMeansContext(const Matrix &data)
{
    KMeansContext ctx;
    size_t n = data.rows();
    size_t dims = data.cols();
    ctx.distinctOf.resize(n);

    // Bitwise row identity: keying on the raw row bytes means two rows
    // are merged only when every double compares memcmp-equal, so any
    // pure function of the row bytes (distance, argmin) provably
    // yields the same bits for both. NaN payloads and -0.0 vs +0.0
    // are treated as distinct — conservative and still correct.
    std::unordered_map<std::string_view, size_t> ids;
    ids.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::span<const double> row = data.rowSpan(i);
        std::string_view key(reinterpret_cast<const char *>(row.data()),
                             dims * sizeof(double));
        auto [it, inserted] = ids.emplace(key, ctx.firstRow.size());
        if (inserted) {
            ctx.firstRow.push_back(i);
            ctx.multiplicity.push_back(0);
        }
        ctx.distinctOf[i] = it->second;
        ++ctx.multiplicity[it->second];
    }

    size_t m = ctx.firstRow.size();
    ctx.points.resize(m * dims);
    ctx.pointNorms.resize(m);
    for (size_t d = 0; d < m; ++d) {
        std::span<const double> row = data.rowSpan(ctx.firstRow[d]);
        std::copy(row.begin(), row.end(), ctx.points.begin() + d * dims);
        double sum = 0.0;
        for (double v : row)
            sum += v * v;
        ctx.pointNorms[d] = std::sqrt(sum);
    }

    // Counting sort by distinct id keeps each row's observations
    // ascending.
    ctx.rowStart.assign(m + 1, 0);
    for (size_t d = 0; d < m; ++d)
        ctx.rowStart[d + 1] = ctx.rowStart[d] + ctx.multiplicity[d];
    ctx.rowObservations.resize(n);
    std::vector<size_t> fill(ctx.rowStart.begin(), ctx.rowStart.end() - 1);
    for (size_t i = 0; i < n; ++i)
        ctx.rowObservations[fill[ctx.distinctOf[i]]++] = i;
    return ctx;
}

namespace {

// Conservative floating-point slack for the Hamerly bounds. Every
// certified quantity is built from correctly-rounded operations whose
// accumulated relative error is O(dims * 2^-53) ~ 1e-15; inflating
// upper bounds and deflating lower bounds by 1e-12 therefore dominates
// the rounding error by three orders of magnitude, so a bound
// comparison can never prune an assignment the exact arithmetic would
// have changed. (Pruning too *little* only costs a full scan, which
// is always exact.)
constexpr double kInflate = 1.0 + 1e-12;
constexpr double kDeflate = 1.0 - 1e-12;

/** One distinct row's assignment pass: its centroid, and whether it
 *  needed the full scan. */
struct Visit
{
    size_t to;
    bool scanned;
};

/**
 * Half the distance to each centroid's nearest other centroid,
 * deflated — the classic Hamerly `s` value. A point within s of its
 * assigned centroid is provably *strictly* closer to it than to any
 * other. O(k^2 dims), negligible at PKS scale (k <= 20, dims <= 12).
 */
void
computeHalfSeparations(const Matrix &centroids, std::vector<double> &out)
{
    size_t k = centroids.rows();
    out.assign(k, std::numeric_limits<double>::infinity());
    for (size_t a = 0; a < k; ++a) {
        for (size_t b = a + 1; b < k; ++b) {
            double d = squaredDistance(centroids, a, centroids, b);
            out[a] = std::min(out[a], d);
            out[b] = std::min(out[b], d);
        }
    }
    for (size_t a = 0; a < k; ++a)
        out[a] = 0.5 * std::sqrt(out[a]) * kDeflate;
}

} // namespace

KMeansResult
kMeans(const Matrix &data, size_t k, Rng rng, size_t max_iters,
       ThreadPool *pool, const KMeansContext *context)
{
    SIEVE_ASSERT(data.rows() > 0, "k-means on empty data");
    k = std::clamp<size_t>(k, 1, data.rows());

    // Per-run (not per-assignment) instrumentation: the assignment
    // loop is the hot path and must stay untouched. All of these are
    // pure functions of the input data, so they are Stable.
    static obs::Counter &c_runs = obs::counter("stats.kmeans.runs");
    static obs::Counter &c_iters =
        obs::counter("stats.kmeans.iterations");
    static obs::Counter &c_points = obs::counter("stats.kmeans.points");
    static obs::Counter &c_distinct =
        obs::counter("stats.kmeans.distinct_points");
    static obs::Counter &c_pruned =
        obs::counter("stats.kmeans.pruned_scans");
    static obs::Counter &c_scans =
        obs::counter("stats.kmeans.full_scans");
    c_runs.add();
    obs::Span span("stats", "kmeans", "k=" + std::to_string(k));

    size_t n = data.rows();
    size_t dims = data.cols();

    KMeansContext local_context;
    if (!context) {
        local_context = makeKMeansContext(data);
        context = &local_context;
    }
    SIEVE_ASSERT(context->numPoints() == n,
                 "k-means context built for ", context->numPoints(),
                 " rows, data has ", n);
    size_t m = context->numDistinct();
    c_points.add(n);
    c_distinct.add(m);

    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<size_t> &distinct_of = context->distinctOf;
    const double *points = context->points.data();
    auto point = [&](size_t d) { return points + d * dims; };

    // --- k-means++ seeding (identical arithmetic to the reference) ---
    // Distances are pure functions of the row bytes, so each distinct
    // row keeps one running min-distance; the total and the weighted
    // draw still walk the observations in reference order, so every
    // rng draw and every sum is bit-identical.
    Matrix centroids(k, dims);
    std::vector<double> min_dist(m, kInf);

    size_t first = static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    for (size_t c = 0; c < dims; ++c)
        centroids.at(0, c) = data.at(first, c);

    for (size_t centroid = 1; centroid < k; ++centroid) {
        const double *latest = centroids.rowSpan(centroid - 1).data();
        auto foldOne = [&](size_t d) {
            min_dist[d] = std::min(min_dist[d],
                                   rowDistance(point(d), latest, dims));
        };
        if (pool)
            parallelFor(*pool, m, foldOne);
        else
            for (size_t d = 0; d < m; ++d)
                foldOne(d);

        double total = 0.0;
        for (size_t i = 0; i < n; ++i)
            total += min_dist[distinct_of[i]];
        size_t chosen;
        if (total <= 0.0) {
            // All points coincide with existing centroids; any pick
            // works, keep it deterministic.
            chosen = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(n) - 1));
        } else {
            double r = rng.uniform() * total;
            double acc = 0.0;
            chosen = n - 1;
            for (size_t i = 0; i < n; ++i) {
                acc += min_dist[distinct_of[i]];
                if (r < acc) {
                    chosen = i;
                    break;
                }
            }
        }
        for (size_t c = 0; c < dims; ++c)
            centroids.at(centroid, c) = data.at(chosen, c);
    }

    // --- Lloyd iterations, Hamerly bounds-pruned exact assignment ---
    //
    // Per distinct row we keep the assigned centroid, an inflated
    // Euclidean upper bound on its distance to that centroid, and a
    // deflated lower bound on its distance to every *other* centroid.
    // Both are brought up to date with the last centroid movement
    // when the row is visited: u grows by its own centroid's delta,
    // l shrinks by the largest delta among the other centroids. The
    // row is skipped when u < max(l, half-separation of its
    // centroid); failing that, u is tightened to the exact distance
    // and tested again. Either pass certifies that the assigned
    // centroid is the unique strict argmin, which is exactly what the
    // reference's ascending strict-< scan would select (uniqueness
    // makes the lowest-index tie-break moot). Otherwise the row runs
    // the reference scan — ascending centroid order, exact distance,
    // strict `<` — with centroids skipped only when the deflated
    // norm-difference bound |  ||x|| - ||c||  |^2 already proves they
    // cannot beat the current best.
    KMeansResult result;
    result.assignments.assign(n, 0);
    std::vector<uint64_t> counts(k, 0);
    counts[0] = n;

    std::vector<size_t> assign_d(m, 0);
    std::vector<double> upper_d(m, kInf);
    std::vector<double> lower_d(m, -kInf);
    std::vector<Visit> visits(pool ? m : 0);

    std::vector<double> cent_norms(k); //!< Euclidean, for screening
    std::vector<double> s_half(k);
    std::vector<double> delta(k, 0.0); //!< last movement, inflated
    std::vector<uint8_t> dirty(k, 1);
    Matrix sums(k + 1, dims); //!< per-cluster sums, then a scratch row
    std::vector<double *> target(k);
    Matrix prev_centroids;
    // Largest and second-largest movement, and who moved most: the
    // lower bound of a row assigned to `delta_argmax` decays by the
    // runner-up, every other row's by the maximum.
    double delta_max = 0.0;
    double delta_second = 0.0;
    size_t delta_argmax = 0;
    // True when the centroids moved after the last assignment, i.e.
    // the final assignment (and so the inertia) used prev_centroids.
    bool updated_after_assign = false;

    uint64_t pruned_total = 0;
    uint64_t scans_total = 0;

    for (size_t iter = 0; iter < max_iters; ++iter) {
        for (size_t c = 0; c < k; ++c) {
            std::span<const double> row = centroids.rowSpan(c);
            double sum = 0.0;
            for (double v : row)
                sum += v * v;
            cent_norms[c] = std::sqrt(sum);
        }
        computeHalfSeparations(centroids, s_half);
        const double *cent = centroids.rowSpan(0).data();

        auto assignOne = [&](size_t d) -> Visit {
            size_t a = assign_d[d];
            // Branch-free decay: a zero movement only costs the bound
            // one more factor of slack.
            double u = (upper_d[d] + delta[a]) * kInflate;
            double l = lower_d[d] -
                       (a == delta_argmax ? delta_second : delta_max);
            // Deflating a positive bound keeps it conservative; a
            // negative bound never enables a prune, and only decays
            // further.
            l *= l > 0.0 ? kDeflate : 1.0;
            lower_d[d] = l;
            double bound = std::max(l, s_half[a]);
            if (u < bound) {
                upper_d[d] = u;
                return {a, false};
            }
            const double *x = point(d);
            double d_a = rowDistance(x, cent + a * dims, dims);
            u = std::sqrt(d_a) * kInflate;
            upper_d[d] = u;
            if (u < bound)
                return {a, false};

            double pnorm = context->pointNorms[d];
            size_t best = 0;
            double best_dist = kInf;
            double sec = kInf; // lower bound on the runner-up
            for (size_t c = 0; c < k; ++c) {
                // Certified reverse-triangle screen: the norms carry
                // ~1e-15 relative error each, and their *difference*
                // can cancel, so subtract an absolute guard scaled by
                // the norms before squaring. A skipped centroid
                // provably satisfies dist >= lb2 >= best_dist, so the
                // reference's strict `<` would not have updated on it
                // either; its bound still feeds the runner-up
                // tracking, keeping `sec` a true lower bound.
                double gap = std::fabs(pnorm - cent_norms[c]) -
                             1e-12 * (pnorm + cent_norms[c]);
                if (gap > 0.0) {
                    double lb2 = gap * gap * kDeflate;
                    if (lb2 >= best_dist) {
                        if (lb2 < sec)
                            sec = lb2;
                        continue;
                    }
                }
                double dist =
                    c == a ? d_a : rowDistance(x, cent + c * dims, dims);
                if (dist < best_dist) {
                    sec = best_dist;
                    best_dist = dist;
                    best = c;
                } else if (dist < sec) {
                    sec = dist;
                }
            }
            upper_d[d] = std::sqrt(best_dist) * kInflate;
            lower_d[d] = std::sqrt(sec) * kDeflate;
            return {best, true};
        };

        // Serial, per distinct row: the changed flag, the dirty
        // clusters and the member counts follow from the old and new
        // assignments; only the observations of moved rows are
        // rewritten. The pool path settles after the parallel pass,
        // the serial one right behind each visit — integer updates in
        // either order give the same state.
        bool changed = false;
        auto settle = [&](size_t d, Visit visit) {
            ++(visit.scanned ? scans_total : pruned_total);
            size_t from = assign_d[d];
            if (visit.to == from)
                return;
            changed = true;
            dirty[from] = 1;
            dirty[visit.to] = 1;
            counts[from] -= context->multiplicity[d];
            counts[visit.to] += context->multiplicity[d];
            assign_d[d] = visit.to;
            for (size_t j = context->rowStart[d];
                 j < context->rowStart[d + 1]; ++j)
                result.assignments[context->rowObservations[j]] =
                    visit.to;
        };
        if (pool) {
            parallelFor(*pool, m,
                        [&](size_t d) { visits[d] = assignOne(d); });
            for (size_t d = 0; d < m; ++d)
                settle(d, visits[d]);
        } else {
            for (size_t d = 0; d < m; ++d)
                settle(d, assignOne(d));
        }
        result.iterations = iter + 1;
        updated_after_assign = false;
        if (!changed && iter > 0)
            break;

        // Recompute the dirty centroids; empty clusters keep their old
        // position. Per-observation accumulation in reference order —
        // duplicate multiplicities must NOT be folded into weighted
        // sums here, because count * x and x + x + ... round
        // differently. (Every cluster is dirty on the first pass: the
        // seeds are not means.)
        prev_centroids = centroids;
        for (size_t c = 0; c < k; ++c) {
            if (dirty[c]) {
                std::span<double> acc = sums.rowSpan(c);
                std::fill(acc.begin(), acc.end(), 0.0);
            }
        }
        // Members of clean clusters fold into a scratch row instead of
        // branching on every observation.
        for (size_t c = 0; c < k; ++c)
            target[c] = sums.rowSpan(dirty[c] ? c : k).data();
        const double *rows = data.rowSpan(0).data();
        for (size_t i = 0; i < n; ++i) {
            const double *row = rows + i * dims;
            double *acc = target[result.assignments[i]];
            for (size_t j = 0; j < dims; ++j)
                acc[j] += row[j];
        }
        delta_max = 0.0;
        delta_second = 0.0;
        delta_argmax = 0;
        for (size_t c = 0; c < k; ++c) {
            delta[c] = 0.0;
            if (!dirty[c])
                continue;
            dirty[c] = 0;
            if (counts[c] == 0)
                continue;
            double inv = 1.0 / static_cast<double>(counts[c]);
            std::span<const double> acc = sums.rowSpan(c);
            std::span<double> centre = centroids.rowSpan(c);
            for (size_t j = 0; j < dims; ++j)
                centre[j] = acc[j] * inv;
            delta[c] = std::sqrt(squaredDistance(prev_centroids, c,
                                                 centroids, c)) *
                       kInflate;
            if (delta[c] > delta_max) {
                delta_second = delta_max;
                delta_max = delta[c];
                delta_argmax = c;
            } else if (delta[c] > delta_second) {
                delta_second = delta[c];
            }
        }
        updated_after_assign = true;
    }

    // Inertia once, in observation order, against the centroids the
    // final assignment was made with: the reference sums the same
    // per-row distances inside that assignment pass.
    if (result.iterations > 0) {
        const Matrix &used =
            updated_after_assign ? prev_centroids : centroids;
        const double *cent = used.rowSpan(0).data();
        std::vector<double> dist(m);
        for (size_t d = 0; d < m; ++d)
            dist[d] = rowDistance(point(d), cent + assign_d[d] * dims, dims);
        for (size_t i = 0; i < n; ++i)
            result.inertia += dist[distinct_of[i]];
    }

    c_iters.add(result.iterations);
    c_pruned.add(pruned_total);
    c_scans.add(scans_total);
    result.centroids = std::move(centroids);
    return result;
}

} // namespace sieve::stats
