/**
 * @file
 * The benchmark harness: options, the workload interface, the timed
 * loop, and the result record.
 *
 * One run sets a workload up several times (the median is setup_s),
 * then runs whole passes of it until --seconds have elapsed. With
 * --trace 0 every pass is untraced and the run reports the
 * end-to-end metrics. With --trace 1 untraced and traced passes
 * alternate: the untraced ones give the wall the layers must add up
 * to, the traced ones give per-layer self times and the tracing
 * overhead.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "spans.hh"

namespace perfbench {

/**
 * Pool workers of every run. One worker is the pool's serial mode:
 * batch work runs on the calling thread, and serve-mix's one server
 * worker answers one client at a time. Every run then keeps a single
 * thread busy, so the process CPU time the end-to-end metrics are
 * measured in is the work itself, with no spinning or waiting at
 * fan-out barriers, on a host whose few CPUs are shared with others.
 */
inline constexpr size_t kJobs = 1;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;     //!< 0 = the registry's own instances
    double seconds = 10.0; //!< measured time, whole passes
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::string outDir = ".bench_build/results";
    std::string commit = "unknown";
};

/** Everything a workload's set-up and passes may use. */
struct Context
{
    const Options &opts;
    SpanRecorder &spans;
    sieve::ThreadPool &pool;
};

/** What one measured pass produced. */
struct PassResult
{
    double items = 0.0;           //!< numerator of items_per_cpu_s
    std::vector<double> opMs;     //!< per-operation wall latencies
    std::vector<double> opCpuMs;  //!< per-operation process CPU time
    /**
     * Per-operation outcome digests, in the same order every pass. An
     * operation whose output check failed has a digest starting with
     * '!'.
     */
    std::vector<std::string> opDigests;
    /** Failed checks that are not operations of this pass. */
    size_t failed = 0;
    /** Extra checked operations besides opDigests (attempted). */
    size_t extraAttempted = 0;
    /** Per-request-kind latencies (serve-mix). */
    std::vector<std::pair<std::string, double>> kindMs;
    /** Per-pass layer counts (summed over traced passes). */
    std::map<std::string, double> counts;
    /** Per-pass figures that are the same every pass (accuracy). */
    std::map<std::string, double> figures;
};

/** Wall and process CPU time of one timed operation. */
class OpClock
{
  public:
    OpClock() : _wall(nowNs()), _cpu(cpuNs()) {}

    /** Append the time since construction to out.opMs and opCpuMs. */
    void record(PassResult &out) const
    {
        out.opMs.push_back(static_cast<double>(nowNs() - _wall) * 1e-6);
        out.opCpuMs.push_back(static_cast<double>(cpuNs() - _cpu) * 1e-6);
    }

  private:
    int64_t _wall;
    int64_t _cpu;
};

/** One benchmark workload. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** What items_per_cpu_s counts, for the printed table. */
    virtual const char *itemName() const = 0;
    /** What one timed operation is, for the printed table. */
    virtual const char *opName() const = 0;
    /** Quantile reported as op_tail_ms, fixed per workload. */
    virtual double tailQuantile() const = 0;

    /**
     * Build fresh inputs and expected outputs, dropping any earlier
     * set-up. Layer counts of the set-up go into `counts`.
     */
    virtual void setup(Context &ctx,
                       std::map<std::string, double> &counts) = 0;

    /**
     * One measured pass over the inputs. A traced pass may recompose
     * a composite library call from its public parts so each layer
     * gets its own span; it must produce the same outputs.
     */
    virtual PassResult pass(Context &ctx, bool traced) = 0;

    /** After the last pass: layer figures read from the program. */
    virtual void finish(Context &, std::map<std::string, double> &) {}
};

/** Factory: nullptr for an unknown workload name. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name);

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run. */
struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::string digest;      //!< outcome digest of the first pass
    std::string fingerprint; //!< JSON object
    std::vector<std::string> notes; //!< human-readable lines
};

/**
 * Failed ops of a pass: those marked failed ('!'), those whose digest
 * differs from the reference pass's digest at the same position, and
 * every op without a counterpart.
 */
size_t countMismatches(const std::vector<std::string> &reference,
                       const std::vector<std::string> &current);

/** Run one workload end to end. */
RunReport runBenchmark(BenchWorkload &workload, const Options &opts);

/** The final result line: exactly correct/attempted/failed/metrics. */
std::string resultJson(const RunReport &report);

/** The full record (fingerprint, digest, metrics, notes) as JSON. */
std::string recordJson(const RunReport &report);

/** FNV-1a 64-bit digest, printed as hex. */
class Digest
{
  public:
    Digest &add(const void *data, size_t size);
    Digest &add(const std::string &s);
    Digest &add(uint64_t v) { return add(&v, sizeof v); }
    Digest &add(double v) { return add(&v, sizeof v); }
    std::string hex() const;

  private:
    uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
