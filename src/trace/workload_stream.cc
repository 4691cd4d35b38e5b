#include "trace/workload_stream.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "io/span_reader.hh"
#include "obs/metrics.hh"
#include "trace/workload_format.hh"

namespace sieve::trace {

namespace {

obs::Counter &
windowsCounter()
{
    static obs::Counter &c = obs::counter("ingest.stream.windows");
    return c;
}

obs::Counter &
invocationsCounter()
{
    static obs::Counter &c =
        obs::counter("ingest.stream.invocations");
    return c;
}

} // namespace

IngestBudget
IngestBudget::fromEnv()
{
    IngestBudget budget;
    if (auto mb = envUint64("SIEVE_INGEST_BUDGET_MB", 0, kMaxBudgetMb))
        budget.budgetBytes = static_cast<size_t>(*mb) << 20;
    return budget;
}

Expected<WorkloadStreamReader>
WorkloadStreamReader::tryOpen(const std::string &path)
{
    auto file = io::MmapFile::tryOpen(path);
    if (!file)
        return ingestError(ErrorKind::Io,
                           "cannot open '" + path + "' for reading",
                           path, 0, 0);

    io::MmapFile &view = file.value();
    io::SpanReader in(view.data(), view.size(), path);
    wlfmt::HeaderInfo hdr;
    if (auto err = wlfmt::readHeader(in, path, view.size(), hdr))
        return std::move(*err);

    // The record region must be exactly the declared length. The
    // resident loader discovers a mismatch record by record; the
    // stream reader must know up front so windows can be addressed
    // by offset.
    const uint64_t remaining = in.remaining();
    const uint64_t needed =
        hdr.numInvocations * wlfmt::kInvocationRecordBytes;
    if (remaining < needed)
        return ingestError(
            ErrorKind::Io,
            "truncated workload file: " +
                std::to_string(hdr.numInvocations) +
                " invocation records need " + std::to_string(needed) +
                " bytes, " + std::to_string(remaining) + " available",
            path, 0, in.offset());
    if (remaining > needed)
        return ingestError(
            ErrorKind::Validation, "trailing bytes after workload data",
            path, 0, in.offset() + static_cast<size_t>(needed));

    WorkloadStreamReader reader;
    reader._path = path;
    reader._suite = std::move(hdr.suite);
    reader._name = std::move(hdr.name);
    reader._paper_invocations = hdr.paperInvocations;
    reader._kernel_names = std::move(hdr.kernelNames);
    reader._num_invocations = hdr.numInvocations;
    reader._records_offset = in.offset();
    reader._file = std::move(view);
    return reader;
}

Expected<size_t>
WorkloadStreamReader::nextWindow(std::vector<KernelInvocation> &out,
                                 size_t max_count)
{
    SIEVE_ASSERT(max_count > 0, "nextWindow() with an empty window");
    out.clear();
    if (_next >= _num_invocations)
        return size_t{0};

    const uint64_t left = _num_invocations - _next;
    const size_t count = static_cast<size_t>(
        std::min<uint64_t>(left, max_count));
    const size_t byte_off =
        _records_offset +
        static_cast<size_t>(_next * wlfmt::kInvocationRecordBytes);
    io::SpanReader in(
        _file.data() + byte_off,
        count * static_cast<size_t>(wlfmt::kInvocationRecordBytes),
        _path, byte_off);

    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        KernelInvocation inv = wlfmt::readInvocation(in);
        if (in.failed())
            return in.takeError();
        const uint64_t index = _next + i;
        if (inv.kernelId >= _kernel_names.size())
            return wlfmt::danglingKernelError(
                _path, index, inv.kernelId, _kernel_names.size(),
                in.offset());
        if (inv.invocationId != index)
            return wlfmt::chronologyError(_path, index,
                                          inv.invocationId,
                                          in.offset());
        out.push_back(std::move(inv));
    }

    _next += count;
    windowsCounter().add();
    invocationsCounter().add(count);
    return count;
}

} // namespace sieve::trace
