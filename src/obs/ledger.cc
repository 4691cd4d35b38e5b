#include "obs/ledger.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/percentile.hh"
#include "obs/telemetry.hh"

namespace sieve::obs {

namespace {

// ---------------------------------------------------------------
// JSON formatting. Numbers must round-trip: uint64 exactly, doubles
// via shortest-representation to_chars so parse(serialise(x)) is a
// fixpoint and ledger diffs are byte-stable.
// ---------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------
// JSON parsing: a compact recursive-descent DOM, just enough for
// this tool's own single-line objects. Number values keep their raw
// token so integers stay exact (strtoull) and doubles re-parse to
// the identical bits to_chars produced.
// ---------------------------------------------------------------

struct JVal
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string num; //!< raw numeric token
    std::string str;
    std::vector<JVal> arr;
    std::vector<std::pair<std::string, JVal>> obj;

    const JVal *
    find(const char *key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }

    uint64_t
    asU64() const
    {
        return std::strtoull(num.c_str(), nullptr, 10);
    }

    int64_t
    asI64() const
    {
        return std::strtoll(num.c_str(), nullptr, 10);
    }

    double
    asDouble() const
    {
        return std::strtod(num.c_str(), nullptr);
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string &text) : _text(text) {}

    bool
    parse(JVal *out, std::string *error)
    {
        _pos = 0;
        _error.clear();
        if (!parseValue(out)) {
            if (error)
                *error = _error.empty() ? "malformed JSON" : _error;
            return false;
        }
        skipWs();
        if (_pos != _text.size()) {
            if (error)
                *error = "trailing garbage after JSON value";
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    bool
    fail(const char *msg)
    {
        if (_error.empty())
            _error = msg;
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (_text.compare(_pos, len, word) != 0)
            return false;
        _pos += len;
        return true;
    }

    bool
    parseValue(JVal *out)
    {
        skipWs();
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        char c = _text[_pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->kind = JVal::Kind::Str;
            return parseString(&out->str);
        }
        if (literal("true")) {
            out->kind = JVal::Kind::Bool;
            out->boolean = true;
            return true;
        }
        if (literal("false")) {
            out->kind = JVal::Kind::Bool;
            out->boolean = false;
            return true;
        }
        if (literal("null")) {
            out->kind = JVal::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseNumber(JVal *out)
    {
        size_t begin = _pos;
        auto isNumChar = [](char c) {
            return (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                   c == '.' || c == 'e' || c == 'E';
        };
        while (_pos < _text.size() && isNumChar(_text[_pos]))
            ++_pos;
        if (_pos == begin)
            return fail("expected a value");
        out->kind = JVal::Kind::Num;
        out->num = _text.substr(begin, _pos - begin);
        // Validate it actually parses as a number.
        const char *start = out->num.c_str();
        char *end = nullptr;
        std::strtod(start, &end);
        if (end != start + out->num.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (_text[_pos] != '"')
            return fail("expected string");
        ++_pos;
        out->clear();
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    return fail("unterminated escape");
                char e = _text[_pos++];
                switch (e) {
                  case 'n': out->push_back('\n'); break;
                  case 't': out->push_back('\t'); break;
                  case 'r': out->push_back('\r'); break;
                  case 'b': out->push_back('\b'); break;
                  case 'f': out->push_back('\f'); break;
                  case 'u': {
                    if (_pos + 4 > _text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = _text[_pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    // Only control characters are emitted escaped by
                    // this tool; anything wider degrades to '?'.
                    out->push_back(code < 0x80
                                       ? static_cast<char>(code)
                                       : '?');
                    break;
                  }
                  default: out->push_back(e); break;
                }
            } else {
                out->push_back(c);
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JVal *out)
    {
        out->kind = JVal::Kind::Arr;
        ++_pos; // '['
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            JVal v;
            if (!parseValue(&v))
                return false;
            out->arr.push_back(std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated array");
            char c = _text[_pos++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(JVal *out)
    {
        out->kind = JVal::Kind::Obj;
        ++_pos; // '{'
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (_pos >= _text.size() || _text[_pos] != '"' ||
                !parseString(&key))
                return fail("expected object key");
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return fail("expected ':' after object key");
            ++_pos;
            JVal v;
            if (!parseValue(&v))
                return false;
            out->obj.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated object");
            char c = _text[_pos++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
    }

    const std::string &_text;
    size_t _pos = 0;
    std::string _error;
};

// ---------------------------------------------------------------
// Run context: what main() tells us about this invocation.
// ---------------------------------------------------------------

struct RunContext
{
    std::mutex mu;
    std::string command;
    std::vector<std::string> argv;
    int jobs = 0;
    uint64_t startedUnixMs = 0;
    std::chrono::steady_clock::time_point startedAt;
    bool set = false;
};

RunContext &
runContext()
{
    static RunContext *ctx = new RunContext; // outlives atexit flush
    return *ctx;
}

} // namespace

std::string
manifestToJsonLine(const RunManifest &manifest)
{
    std::ostringstream os;
    os << "{\"schema\":" << manifest.schema << ",\"command\":\""
       << jsonEscape(manifest.command) << "\",\"argv\":[";
    for (size_t i = 0; i < manifest.argv.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << jsonEscape(manifest.argv[i]) << '"';
    }
    os << "],\"jobs\":" << manifest.jobs << ",\"started_unix_ms\":"
       << manifest.startedUnixMs << ",\"wall_ms\":"
       << formatDouble(manifest.wallMs) << ",\"max_rss_kb\":"
       << manifest.maxRssKb << ",\"telemetry_samples\":"
       << manifest.telemetrySamples << ",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : manifest.counters) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << "\":" << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : manifest.histograms) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << jsonEscape(name) << "\":{\"count\":" << h.count
           << ",\"sum\":" << h.sum << ",\"p50\":"
           << formatDouble(h.p50) << ",\"p90\":" << formatDouble(h.p90)
           << ",\"p95\":" << formatDouble(h.p95) << ",\"p99\":"
           << formatDouble(h.p99) << '}';
    }
    os << "}}";
    return os.str();
}

bool
parseManifestLine(const std::string &line, RunManifest *out,
                  std::string *error)
{
    JVal root;
    JsonParser parser(line);
    if (!parser.parse(&root, error))
        return false;
    auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (root.kind != JVal::Kind::Obj)
        return fail("manifest line is not a JSON object");

    const JVal *schema = root.find("schema");
    if (!schema || schema->kind != JVal::Kind::Num)
        return fail("manifest missing \"schema\"");
    RunManifest m;
    m.schema = static_cast<int>(schema->asI64());
    if (m.schema < 1 || m.schema > RunManifest::kSchema)
        return fail("unsupported manifest schema");

    const JVal *command = root.find("command");
    if (!command || command->kind != JVal::Kind::Str)
        return fail("manifest missing \"command\"");
    m.command = command->str;

    if (const JVal *argv = root.find("argv");
        argv && argv->kind == JVal::Kind::Arr) {
        for (const JVal &a : argv->arr) {
            if (a.kind != JVal::Kind::Str)
                return fail("non-string argv entry");
            m.argv.push_back(a.str);
        }
    }
    if (const JVal *v = root.find("jobs");
        v && v->kind == JVal::Kind::Num)
        m.jobs = static_cast<int>(v->asI64());
    if (const JVal *v = root.find("started_unix_ms");
        v && v->kind == JVal::Kind::Num)
        m.startedUnixMs = v->asU64();
    if (const JVal *v = root.find("wall_ms");
        v && v->kind == JVal::Kind::Num)
        m.wallMs = v->asDouble();
    if (const JVal *v = root.find("max_rss_kb");
        v && v->kind == JVal::Kind::Num)
        m.maxRssKb = v->asI64();
    if (const JVal *v = root.find("telemetry_samples");
        v && v->kind == JVal::Kind::Num)
        m.telemetrySamples = v->asU64();

    const JVal *counters = root.find("counters");
    if (!counters || counters->kind != JVal::Kind::Obj)
        return fail("manifest missing \"counters\"");
    for (const auto &[name, v] : counters->obj) {
        if (v.kind != JVal::Kind::Num)
            return fail("non-numeric counter value");
        m.counters[name] = v.asU64();
    }

    const JVal *histograms = root.find("histograms");
    if (!histograms || histograms->kind != JVal::Kind::Obj)
        return fail("manifest missing \"histograms\"");
    for (const auto &[name, v] : histograms->obj) {
        if (v.kind != JVal::Kind::Obj)
            return fail("histogram entry is not an object");
        HistogramQuantiles h;
        auto num = [&](const char *key, bool *ok) -> const JVal * {
            const JVal *f = v.find(key);
            if (!f || f->kind != JVal::Kind::Num) {
                *ok = false;
                return nullptr;
            }
            return f;
        };
        bool ok = true;
        if (const JVal *f = num("count", &ok))
            h.count = f->asU64();
        if (const JVal *f = num("sum", &ok))
            h.sum = f->asU64();
        if (const JVal *f = num("p50", &ok))
            h.p50 = f->asDouble();
        if (const JVal *f = num("p90", &ok))
            h.p90 = f->asDouble();
        if (const JVal *f = num("p95", &ok))
            h.p95 = f->asDouble();
        if (const JVal *f = num("p99", &ok))
            h.p99 = f->asDouble();
        if (!ok)
            return fail("incomplete histogram entry");
        m.histograms[name] = h;
    }

    *out = std::move(m);
    if (error)
        error->clear();
    return true;
}

LedgerReadResult
readRunLedger(std::istream &is)
{
    LedgerReadResult out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        RunManifest m;
        std::string error;
        if (parseManifestLine(line, &m, &error))
            out.runs.push_back(std::move(m));
        else
            ++out.skippedLines;
    }
    return out;
}

bool
readRunLedgerFile(const std::string &path, LedgerReadResult *out,
                  std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open ledger '" + path + "'";
        return false;
    }
    *out = readRunLedger(in);
    if (error)
        error->clear();
    return true;
}

bool
appendRunLedger(const std::string &path, const RunManifest &manifest,
                std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg + ": " + std::strerror(errno);
        return false;
    };

    // O_RDWR, not O_WRONLY: the newline guard below pread()s the
    // current last byte, which a write-only fd cannot do.
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return fail("cannot open ledger '" + path + "'");

    std::string payload = manifestToJsonLine(manifest);
    payload.push_back('\n');

    // Newline-guard: if a previous writer crashed mid-line, keep the
    // torn tail its own (skipped) line instead of fusing with it.
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        char last = '\n';
        if (::pread(fd, &last, 1, st.st_size - 1) == 1 &&
            last != '\n')
            payload.insert(payload.begin(), '\n');
    }

    // One write: O_APPEND makes concurrent appends interleave at
    // line granularity (POSIX appends are atomic per write).
    const char *data = payload.data();
    size_t remaining = payload.size();
    while (remaining > 0) {
        ssize_t n = ::write(fd, data, remaining);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return fail("write to ledger '" + path + "' failed");
        }
        data += n;
        remaining -= static_cast<size_t>(n);
    }
    ::close(fd);
    if (error)
        error->clear();
    return true;
}

void
setRunContext(std::string command, std::vector<std::string> argv,
              int jobs)
{
    RunContext &ctx = runContext();
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.command = std::move(command);
    ctx.argv = std::move(argv);
    ctx.jobs = jobs;
    ctx.startedUnixMs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    ctx.startedAt = std::chrono::steady_clock::now();
    ctx.set = true;
}

RunManifest
collectRunManifest()
{
    RunManifest m;
    {
        RunContext &ctx = runContext();
        std::lock_guard<std::mutex> lock(ctx.mu);
        m.command = ctx.command;
        m.argv = ctx.argv;
        m.jobs = ctx.jobs;
        m.startedUnixMs = ctx.startedUnixMs;
        if (ctx.set) {
            m.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - ctx.startedAt)
                    .count();
        }
    }
    m.maxRssKb = readPeakRssKb();
    m.telemetrySamples = telemetrySweeps();
    m.counters = stableCounters();
    for (const MetricValue &v : snapshotMetrics()) {
        if (v.kind != MetricValue::Kind::Histogram || v.count == 0)
            continue;
        HistogramQuantiles h;
        h.count = v.count;
        h.sum = v.sum;
        Quantiles q = summarizeBuckets(v.buckets);
        h.p50 = q.p50;
        h.p90 = q.p90;
        h.p95 = q.p95;
        h.p99 = q.p99;
        m.histograms[v.name] = h;
    }
    return m;
}

std::string
runFingerprint(const RunManifest &manifest)
{
    // Flags that only route observability output; their presence must
    // not split the baseline history.
    auto isObsFlag = [](const std::string &arg) {
        return arg == "--ledger" || arg == "--trace-out" ||
               arg == "--metrics-out" ||
               arg == "--telemetry-interval-ms";
    };
    std::string fp = manifest.command;
    for (size_t i = 0; i < manifest.argv.size(); ++i) {
        const std::string &arg = manifest.argv[i];
        if (arg == "--telemetry")
            continue;
        if (isObsFlag(arg)) {
            ++i; // skip the flag's value as well
            continue;
        }
        fp.push_back('\x1f');
        fp += arg;
    }
    return fp;
}

bool
exceedsThreshold(double candidate, double baseline, double pct)
{
    return candidate > baseline * (1.0 + pct / 100.0);
}

namespace {

double
growthPct(double candidate, double baseline)
{
    if (baseline > 0.0)
        return (candidate / baseline - 1.0) * 100.0;
    return candidate > 0.0 ? std::numeric_limits<double>::infinity()
                           : 0.0;
}

} // namespace

std::vector<Regression>
findRegressions(const RunManifest &candidate,
                const std::vector<RunManifest> &baselines,
                const RegressOptions &options)
{
    std::vector<Regression> out;
    if (baselines.empty())
        return out;

    size_t window = std::max<size_t>(1, options.window);
    size_t begin =
        baselines.size() > window ? baselines.size() - window : 0;

    // Latency: per histogram, baseline = min p95 over the window.
    for (const auto &[name, h] : candidate.histograms) {
        if (h.count == 0)
            continue;
        double best = -1.0;
        for (size_t i = begin; i < baselines.size(); ++i) {
            auto it = baselines[i].histograms.find(name);
            if (it == baselines[i].histograms.end() ||
                it->second.count == 0)
                continue;
            if (best < 0.0 || it->second.p95 < best)
                best = it->second.p95;
        }
        if (best < 0.0)
            continue; // new histogram: nothing to compare against
        if (exceedsThreshold(h.p95, best, options.maxLatencyPct))
            out.push_back({"p95(" + name + ")", h.p95, best,
                           growthPct(h.p95, best)});
    }

    // Footprint: baseline = min peak RSS over the window.
    if (candidate.maxRssKb > 0) {
        int64_t best = -1;
        for (size_t i = begin; i < baselines.size(); ++i) {
            int64_t rss = baselines[i].maxRssKb;
            if (rss <= 0)
                continue;
            if (best < 0 || rss < best)
                best = rss;
        }
        if (best > 0 &&
            exceedsThreshold(static_cast<double>(candidate.maxRssKb),
                             static_cast<double>(best),
                             options.maxFootprintPct))
            out.push_back({"max_rss_kb",
                           static_cast<double>(candidate.maxRssKb),
                           static_cast<double>(best),
                           growthPct(
                               static_cast<double>(candidate.maxRssKb),
                               static_cast<double>(best))});
    }

    // Wall clock: opt-in (noisy on shared machines).
    if (options.maxWallPct > 0.0 && candidate.wallMs > 0.0) {
        double best = -1.0;
        for (size_t i = begin; i < baselines.size(); ++i) {
            double w = baselines[i].wallMs;
            if (w <= 0.0)
                continue;
            if (best < 0.0 || w < best)
                best = w;
        }
        if (best > 0.0 &&
            exceedsThreshold(candidate.wallMs, best,
                             options.maxWallPct))
            out.push_back({"wall_ms", candidate.wallMs, best,
                           growthPct(candidate.wallMs, best)});
    }

    // Stable counters: exact comparison against the most recent
    // baseline — drift on an identical command line is a correctness
    // signal, not a performance one.
    if (!options.allowCounterDrift) {
        const RunManifest &last = baselines.back();
        for (const auto &[name, value] : candidate.counters) {
            auto it = last.counters.find(name);
            uint64_t base =
                it == last.counters.end() ? 0 : it->second;
            if (it == last.counters.end() || base != value)
                out.push_back({"counter(" + name + ")",
                               static_cast<double>(value),
                               static_cast<double>(base),
                               growthPct(static_cast<double>(value),
                                         static_cast<double>(base))});
        }
        for (const auto &[name, base] : last.counters) {
            if (candidate.counters.find(name) ==
                candidate.counters.end())
                out.push_back({"counter(" + name + ")", 0.0,
                               static_cast<double>(base), -100.0});
        }
    }
    return out;
}

} // namespace sieve::obs
