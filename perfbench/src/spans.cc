#include "spans.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local uint64_t t_currentSpan = 0;

uint64_t
threadNumber()
{
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t number = next.fetch_add(1);
    return number;
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
cpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

uint64_t
currentSpanId()
{
    return t_currentSpan;
}

uint64_t
SpanRecorder::nextId()
{
    if (!_enabled)
        return 0;
    std::lock_guard<std::mutex> lock(_mu);
    return _nextId++;
}

void
SpanRecorder::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(std::move(span));
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _spans;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::vector<SpanRecord> all = spans();
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\":";
        writeJsonString(os, s.name);
        os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << s.startNs / 1000.0
           << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

Span::Span(SpanRecorder &rec, std::string name, uint64_t parent)
    : _recorder(rec)
{
    if (!rec.enabled())
        return;
    _rec.id = rec.nextId();
    _rec.parent = parent != 0 ? parent : t_currentSpan;
    _rec.name = std::move(name);
    _rec.thread = threadNumber();
    _savedCurrent = t_currentSpan;
    t_currentSpan = _rec.id;
    _rec.startNs = nowNs();
}

Span::~Span()
{
    if (_rec.id == 0)
        return;
    _rec.endNs = nowNs();
    t_currentSpan = _savedCurrent;
    _recorder.record(std::move(_rec));
}

std::map<uint64_t, double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    const size_t n = spans.size();
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < n; ++i)
        index.emplace(spans[i].id, i);
    std::vector<long> parentOf(n, -1);
    for (size_t i = 0; i < n; ++i) {
        auto it = index.find(spans[i].parent);
        if (spans[i].parent != 0 && it != index.end() && it->second != i)
            parentOf[i] = static_cast<long>(it->second);
    }

    // Sweep over start/end events; every elementary interval goes to
    // the open spans that have no open child, split evenly.
    struct Event
    {
        int64_t t;
        bool start;
        size_t span;
    };
    std::vector<Event> events;
    events.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) {
        if (spans[i].endNs <= spans[i].startNs)
            continue;
        events.push_back({spans[i].startNs, true, i});
        events.push_back({spans[i].endNs, false, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.t < b.t; });

    std::vector<double> self(n, 0.0);
    std::vector<size_t> openChildren(n, 0);
    std::vector<size_t> open;
    std::vector<size_t> leaves;
    for (size_t e = 0; e < events.size();) {
        const int64_t t = events[e].t;
        for (; e < events.size() && events[e].t == t; ++e) {
            size_t s = events[e].span;
            long p = parentOf[s];
            if (events[e].start) {
                open.push_back(s);
                if (p >= 0)
                    ++openChildren[static_cast<size_t>(p)];
            } else {
                open.erase(std::find(open.begin(), open.end(), s));
                if (p >= 0)
                    --openChildren[static_cast<size_t>(p)];
            }
        }
        if (e == events.size() || open.empty())
            continue;
        leaves.clear();
        for (size_t s : open)
            if (openChildren[s] == 0)
                leaves.push_back(s);
        double share = static_cast<double>(events[e].t - t) * 1e-9 /
                       static_cast<double>(leaves.size());
        for (size_t s : leaves)
            self[s] += share;
    }

    std::map<uint64_t, double> out;
    for (size_t i = 0; i < n; ++i)
        out[spans[i].id] += self[i];
    return out;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    std::map<uint64_t, double> byId = selfSeconds(spans);
    std::map<std::string, double> out;
    for (const SpanRecord &s : spans)
        out[s.name] += byId[s.id];
    return out;
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return sorted[rank - 1];
}

size_t
samplesBeyond(const std::vector<double> &sorted, double q)
{
    double v = quantileSorted(sorted, q);
    return static_cast<size_t>(
        sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v));
}

double
highestSupportedQuantile(const std::vector<double> &sorted,
                         size_t min_beyond)
{
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
        if (!sorted.empty() && samplesBeyond(sorted, q) >= min_beyond)
            return q;
    }
    return 0.5;
}

} // namespace perfbench
