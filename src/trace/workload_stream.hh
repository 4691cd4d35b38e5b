/**
 * @file
 * Out-of-core workload ingestion: windowed streaming over a mapped
 * .swl file.
 *
 * The resident loader materializes every invocation record into a
 * vector, which caps end-to-end runs at what fits in memory. The
 * stream reader removes that cap: it memory-maps the file
 * (io::MmapFile), parses and validates the header + kernel table
 * once, and then hands out *windows* of invocation records — at most
 * `IngestBudget::windowInvocations()` at a time — so the pipeline's
 * peak record memory is bounded by `--ingest-budget-mb` regardless
 * of workload size. Because the file is mapped, a window costs page
 * faults on first touch and nothing on re-streaming (`rewind()`).
 *
 * Validation parity: records go through the exact same
 * wlfmt::readInvocation template as the resident loader, including
 * the dangling-kernel and chronology checks, so a corrupt file
 * yields the identical structured Error (text and byte offset) on
 * either path. tryOpen() additionally checks that the record region
 * is exactly `numInvocations * 196` bytes, which the resident loader
 * discovers only while reading.
 *
 * Stable counters `ingest.stream.windows` and
 * `ingest.stream.invocations` count window traffic. They depend only
 * on file content and budget — never on --jobs — so they gate
 * jobs-invariance in CI.
 */

#ifndef SIEVE_TRACE_WORKLOAD_STREAM_HH
#define SIEVE_TRACE_WORKLOAD_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "io/mmap_file.hh"
#include "trace/workload.hh"

namespace sieve::trace {

/** Memory bound for streaming ingestion. */
struct IngestBudget
{
    /** Peak bytes of invocation records held at once. */
    size_t budgetBytes = size_t{64} << 20;

    /**
     * IngestBudget with the bound taken from SIEVE_INGEST_BUDGET_MB
     * (common/env.hh: unset, malformed or above kMaxBudgetMb keeps
     * the default; a bad value is warned about).
     */
    static IngestBudget fromEnv();

    /** Records per window under the budget (always at least 1). */
    size_t
    windowInvocations() const
    {
        const size_t per = sizeof(KernelInvocation);
        const size_t n = budgetBytes / per;
        return n > 0 ? n : 1;
    }
};

/**
 * Windowed reader over one workload file. Header and kernel table
 * are resident (small); invocation records stream in bounded
 * windows. Not thread-safe; one reader per pipeline pass.
 */
class WorkloadStreamReader
{
  public:
    /**
     * Map `path`, parse + validate the header, and verify the record
     * region is exactly the declared length. Structured Error on any
     * problem.
     */
    static Expected<WorkloadStreamReader> tryOpen(
        const std::string &path);

    const std::string &suite() const { return _suite; }
    const std::string &name() const { return _name; }
    uint64_t paperInvocations() const { return _paper_invocations; }

    const std::vector<std::string> &kernelNames() const
    {
        return _kernel_names;
    }
    size_t numKernels() const { return _kernel_names.size(); }
    uint64_t numInvocations() const { return _num_invocations; }

    /** Index of the next record nextWindow() will yield. */
    uint64_t position() const { return _next; }

    /** True when the underlying view is a zero-copy mapping. */
    bool zeroCopy() const { return _file.mapped(); }

    /**
     * Fill `out` (cleared first) with the next up-to-`max_count`
     * records, validated exactly like the resident loader. Returns
     * the number of records yielded; 0 at end of stream.
     */
    Expected<size_t> nextWindow(std::vector<KernelInvocation> &out,
                                size_t max_count);

    /** Restart streaming from the first invocation. */
    void rewind() { _next = 0; }

  private:
    WorkloadStreamReader() = default;

    io::MmapFile _file;
    std::string _path;
    std::string _suite;
    std::string _name;
    uint64_t _paper_invocations = 0;
    std::vector<std::string> _kernel_names;
    uint64_t _num_invocations = 0;
    size_t _records_offset = 0; //!< byte offset of the first record
    uint64_t _next = 0;         //!< next record index
};

} // namespace sieve::trace

#endif // SIEVE_TRACE_WORKLOAD_STREAM_HH
