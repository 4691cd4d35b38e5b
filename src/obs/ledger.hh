/**
 * @file
 * Append-only run ledger: one JSON line per CLI/bench invocation,
 * accumulating into `runs.jsonl` so a run can be compared against
 * its own history.
 *
 * The metrics export answers "what did this run do"; the ledger
 * answers "is this run like the last five". Every armed invocation
 * appends a RunManifest at exit — command, argv, seeds-bearing
 * flags, --jobs, wall time, peak RSS, the final Stable counters, and
 * p50/p90/p95/p99 summaries of every non-empty latency histogram.
 * `sieve runs list|show|diff|regress` reads it back; `regress` is
 * the perf-regression watchdog (non-zero exit when the newest run
 * exceeds its baseline window by configurable thresholds).
 *
 * Durability model: a manifest is one `write(2)` to an O_APPEND fd,
 * so concurrent writers interleave at line granularity and a crash
 * can only truncate the final line. Readers therefore skip (and
 * count) lines that fail to parse instead of failing the file, and
 * the appender starts with a newline when the file does not already
 * end in one — a torn tail line stays torn instead of corrupting
 * the next manifest.
 *
 * Stability: everything the ledger *stores* about Stable counters is
 * the already-final merged values; wall/RSS/quantiles are Volatile
 * observations and are recorded as such. The regression verdict
 * compares Stable counters exactly (any drift on an identical
 * command line is a correctness flag, not a perf one) and applies
 * percentage thresholds only to the Volatile measurements.
 */

#ifndef SIEVE_OBS_LEDGER_HH
#define SIEVE_OBS_LEDGER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sieve::obs {

/** Quantile summary of one latency histogram (nanoseconds). */
struct HistogramQuantiles
{
    uint64_t count = 0;
    uint64_t sum = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Everything the ledger records about one invocation. */
struct RunManifest
{
    /** Manifest line format version. */
    static constexpr int kSchema = 1;

    int schema = kSchema;
    std::string command;           //!< "bench_fig3_accuracy", "sieve"
    std::vector<std::string> argv; //!< args after the command name
    int jobs = 0;                  //!< resolved --jobs (0 = unset)
    uint64_t startedUnixMs = 0;    //!< wall-clock start (Unix ms)
    double wallMs = 0.0;           //!< start-to-append duration
    int64_t maxRssKb = 0;          //!< VmHWM at append time
    uint64_t telemetrySamples = 0; //!< sampler sweeps (0 = off)
    //! final Stable counters, exactly as the metrics export
    std::map<std::string, uint64_t> counters;
    //! non-empty latency histograms, summarised
    std::map<std::string, HistogramQuantiles> histograms;
};

/** Serialise to one canonical JSON line (no trailing newline). */
std::string manifestToJsonLine(const RunManifest &manifest);

/**
 * Parse one ledger line. Returns false and sets *error on malformed
 * input (including a torn tail line from a crashed writer).
 */
bool parseManifestLine(const std::string &line, RunManifest *out,
                       std::string *error);

/** Result of reading a ledger stream: parsed runs, oldest first. */
struct LedgerReadResult
{
    std::vector<RunManifest> runs;
    uint64_t skippedLines = 0; //!< unparseable (torn/foreign) lines
};

/** Read every parseable manifest line; never fails on content. */
LedgerReadResult readRunLedger(std::istream &is);

/** readRunLedger from a file; false + *error if unreadable. */
bool readRunLedgerFile(const std::string &path, LedgerReadResult *out,
                       std::string *error);

/**
 * Append one manifest line atomically (single O_APPEND write; a
 * leading newline is added when the file's last byte is not '\n').
 * Returns false and sets *error on I/O failure.
 */
bool appendRunLedger(const std::string &path,
                     const RunManifest &manifest, std::string *error);

/**
 * Record the invocation identity for the manifest this process will
 * append: command name, argv (after the command), resolved --jobs.
 * Also pins the wall-clock start. Call once, early in main.
 */
void setRunContext(std::string command, std::vector<std::string> argv,
                   int jobs);

/**
 * Build the manifest for this process now: the run context, elapsed
 * wall time, peak RSS, telemetry sweep count, final Stable counters
 * and histogram quantiles from the live registry. flushObs() calls
 * this after the metrics/trace files are written — see the
 * flush-order contract in obs/obs.hh.
 */
RunManifest collectRunManifest();

/**
 * Identity key for "the same invocation repeated": command plus argv
 * with observability routing flags (--ledger, --trace-out,
 * --metrics-out, --telemetry, --telemetry-interval-ms) removed, so a
 * run with telemetry on baselines against the same run with it off.
 * --jobs stays: different parallelism is a different workload shape.
 */
std::string runFingerprint(const RunManifest &manifest);

/** Thresholds for findRegressions. */
struct RegressOptions
{
    double maxLatencyPct = 10.0;   //!< per-histogram p95 growth
    double maxFootprintPct = 10.0; //!< max_rss_kb growth
    double maxWallPct = 0.0;       //!< wall_ms growth; <= 0 disables
    bool allowCounterDrift = false;
    size_t window = 5; //!< baselines considered (most recent N)
};

/** One threshold violation. */
struct Regression
{
    std::string metric;     //!< "p95(pool.task.latency_ns)", ...
    double candidate = 0.0;
    double baseline = 0.0;
    double deltaPct = 0.0;  //!< growth over baseline, percent
};

/**
 * The exact threshold rule, exposed for tests: true iff
 * `candidate > baseline * (1 + pct/100)`. A candidate exactly at
 * the boundary does NOT regress.
 */
bool exceedsThreshold(double candidate, double baseline, double pct);

/**
 * Compare `candidate` against a window of prior runs (oldest first;
 * callers pre-filter to the candidate's fingerprint). Baseline for
 * each Volatile measurement is the *minimum* over the window — the
 * best the code has demonstrably done — so a slow outlier baseline
 * cannot mask a real regression. Stable counters are compared
 * exactly against the most recent baseline unless
 * `allowCounterDrift`. Empty baselines => no regressions.
 */
std::vector<Regression>
findRegressions(const RunManifest &candidate,
                const std::vector<RunManifest> &baselines,
                const RegressOptions &options);

} // namespace sieve::obs

#endif // SIEVE_OBS_LEDGER_HH
