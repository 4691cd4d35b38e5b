/**
 * @file
 * The benchmark's own span recorder, self-time attribution and exact
 * quantiles.
 *
 * Spans are recorded around calls into the library's public entry
 * points, from the benchmark's files only. Each span has a name (the
 * layer it times), start and end on the steady clock, the recording
 * thread, and the id of the span that caused it. Spans stay in memory
 * and are written out as Chrome trace-event JSON when the run ends.
 *
 * Self time: at every instant, the time is owned by the innermost
 * open spans, i.e. open spans none of whose children is open. When
 * several such spans are open at once (client threads of one server
 * workload, say), the instant is split evenly between them. The self
 * times of all spans therefore add up exactly to the time covered by
 * the roots, however the spans nest or overlap. Summing inclusive
 * durations instead counts overlapped time once per span, which is
 * how a 452 ms suite used to show a 905 ms pool layer.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
int64_t nowNs();

/**
 * CPU time of the whole process (all threads), in nanoseconds. Time
 * the process spends waiting for a CPU, whether behind other
 * processes or while the hypervisor runs other guests (steal time,
 * with paravirtual time accounting), is not counted.
 */
int64_t cpuNs();

/** One closed span. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = root
    std::string name;
    uint64_t thread = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Thread-safe in-memory span store. A disabled recorder hands out
 * no ids and stores nothing, so untraced passes pay one branch per
 * span.
 */
class SpanRecorder
{
  public:
    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /** Fresh span id (0 when disabled). */
    uint64_t nextId();

    void record(SpanRecord span);

    /** Snapshot of every recorded span, in record order. */
    std::vector<SpanRecord> spans() const;

    /** Write every span as Chrome trace-event JSON ("ph":"X"). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool _enabled = false;
    mutable std::mutex _mu; //!< guards _spans and _nextId
    std::vector<SpanRecord> _spans;
    uint64_t _nextId = 1;
};

/**
 * RAII span. Its parent is the innermost span open on the same
 * thread, or `parent` when given explicitly (for spans opened on a
 * thread other than their cause's).
 */
class Span
{
  public:
    Span(SpanRecorder &rec, std::string name, uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return _rec.id; }

  private:
    SpanRecorder &_recorder;
    SpanRecord _rec;
    uint64_t _savedCurrent = 0;
};

/** Id of the innermost span open on this thread (0 = none). */
uint64_t currentSpanId();

/** Self seconds per span id. Spans with unknown parents are roots. */
std::map<uint64_t, double> selfSeconds(const std::vector<SpanRecord> &spans);

/** Self seconds summed per span name. */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

/**
 * Exact nearest-rank quantile of raw samples: the smallest sample x
 * such that at least ceil(q * n) samples are <= x. `sorted` must be
 * ascending and non-empty; q in (0, 1].
 */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Number of samples strictly above the q-quantile. */
size_t samplesBeyond(const std::vector<double> &sorted, double q);

/**
 * The highest quantile of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that
 * has at least `min_beyond` samples strictly beyond it; 0.5 if none.
 */
double highestSupportedQuantile(const std::vector<double> &sorted,
                                size_t min_beyond = 10);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
