/**
 * @file
 * serve-mix: the sieved daemon over AF_UNIX under a closed loop of
 * one client connection. The client sends its next request only
 * after the previous reply, cycling a fixed mix per pass — 20%
 * ping/stats, then sample, evaluate, simulate and trace-stats — in a
 * seeded order. Simulate requests draw from a pool of four traces
 * whose contents the seed changes, so after warm-up every one is a
 * SimCache hit. With one request in flight, the process CPU time
 * spent between sending a request and reading its reply (client,
 * event loop and server worker together) is that request's cost.
 *
 * Set-up starts the server in this process, computes every expected
 * reply with an offline serve::RequestRunner, and sends each distinct
 * request once as warm-up (checked, not timed). Every timed reply
 * must equal its offline twin byte for byte; stats replies, which
 * describe server state, are checked for shape.
 */

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "gpusim/trace_synth.hh"
#include "sampling/sieve.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/runner.hh"
#include "serve/server.hh"
#include "trace/sass_trace.hh"
#include "workloads.hh"
#include "workloads/generator.hh"

namespace perfbench {

namespace {

using namespace sieve;
using serve::RequestKind;

const std::string kCap = "1000";

/** One distinct request and its offline reply. */
struct Request
{
    RequestKind kind = RequestKind::Ping;
    std::string payload;
    std::string expected;
};

/**
 * Serialized traces of the first representatives of gru. The seed
 * goes into each invocation's noise seed, so it changes the trace
 * contents (addresses, instruction order) but not their sizes: a
 * simulate request costs about the same at every seed.
 */
std::vector<std::string>
tracePool(uint64_t seed, size_t count)
{
    trace::Workload wl =
        workloads::generateWorkload(registrySpec("gru", 800));
    sampling::SamplingResult result = sampling::SieveSampler().sample(wl);
    std::vector<std::string> out;
    for (size_t i = 0; i < count && i < result.strata.size(); ++i) {
        trace::KernelInvocation inv =
            wl.invocation(result.strata[i].representative);
        uint64_t state = seed;
        if (seed != 0)
            inv.noiseSeed ^= splitmix(state);
        std::ostringstream os;
        trace::writeTrace(
            gpusim::synthesizeTrace(wl.kernel(inv.kernelId).name, inv), os);
        out.push_back(os.str());
    }
    return out;
}

/** Shape check for a stats reply (its numbers depend on history). */
bool
statsShapeOk(const std::string &reply)
{
    std::istringstream is(reply);
    const char *keys[] = {"contexts", "sim_caches", "sim.lookups",
                          "sim.hits", "sim.unique"};
    for (const char *key : keys) {
        std::string k;
        uint64_t v = 0;
        if (!(is >> k >> v) || k != key)
            return false;
    }
    std::string rest;
    return !(is >> rest);
}

uint64_t
statsField(const std::string &reply, const std::string &key)
{
    std::istringstream is(reply);
    std::string k;
    uint64_t v = 0;
    while (is >> k >> v) {
        if (k == key)
            return v;
    }
    return 0;
}

class ServeMix : public BenchWorkload
{
  public:
    ~ServeMix() override { stopServer(); }

    const char *itemName() const override { return "requests answered"; }
    const char *opName() const override
    {
        return "one request round trip, client side";
    }
    double tailQuantile() const override { return 0.95; }

    void
    setup(Context &ctx, std::map<std::string, double> &) override
    {
        stopServer();
        std::filesystem::create_directories(ctx.opts.workDir);
        _seed = ctx.opts.seed;
        _passes = 0;
        buildRequests(ctx);

        serve::ServerConfig config;
        config.socketPath = ctx.opts.workDir + "/serve.sock";
        config.jobs = kJobs;
        config.maxQueue = 64;
        config.perClientQuota = 8;
        {
            Span s(ctx.spans, "serve.start");
            _server = std::make_unique<serve::Server>(config);
            Expected<void> started = _server->start();
            if (!started.ok())
                throw std::runtime_error(started.error().toString());
            _loop = std::thread([this] { _server->run(); });
            Expected<serve::ServeClient> conn =
                serve::ServeClient::connect(config.socketPath);
            if (!conn.ok())
                throw std::runtime_error(conn.error().toString());
            _client = std::move(conn).value();
        }

        // Warm-up: every distinct request once.
        Span s(ctx.spans, "serve.warmup");
        for (const Request &r : _requests) {
            ++_setupChecks;
            if (!check(r, _client->call(r.kind, r.payload)).empty())
                ++_setupFailed;
        }
    }

    PassResult
    pass(Context &ctx, bool) override
    {
        PassResult out;
        // Warm-up checks of the set-ups count with the first pass.
        out.extraAttempted = std::exchange(_setupChecks, 0);
        out.failed = std::exchange(_setupFailed, 0);
        out.opDigests.resize(_mix.size());
        for (size_t slot : shuffled(_passes)) {
            const Request &r = _requests[_mix[slot]];
            std::string kind = serve::requestKindName(r.kind);
            const OpClock clock;
            Expected<serve::ServeClient::Response> reply = [&] {
                Span s(ctx.spans, "serve." + kind);
                return _client->call(r.kind, r.payload);
            }();
            clock.record(out);
            std::string problem = check(r, reply);
            if (!problem.empty()) {
                out.opMs.pop_back();
                out.opCpuMs.pop_back();
                out.counts[problem] += 1;
                out.opDigests[slot] = "!" + problem;
                continue;
            }
            out.items += 1;
            out.kindMs.emplace_back("serve." + kind, out.opMs.back());
            out.opDigests[slot] = Digest()
                                      .add(kind)
                                      .add(r.kind == RequestKind::Stats
                                               ? std::string("stats")
                                               : reply.value().payload)
                                      .hex();
        }
        ++_passes;
        return out;
    }

    void
    finish(Context &, std::map<std::string, double> &figures) override
    {
        Expected<serve::ServeClient::Response> reply =
            _client->call(RequestKind::Stats, "");
        if (!reply.ok())
            return;
        double lookups = static_cast<double>(
            statsField(reply.value().payload, "sim.lookups"));
        double hits = static_cast<double>(
            statsField(reply.value().payload, "sim.hits"));
        figures["gpusim.cache.lookups"] = lookups;
        figures["gpusim.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    }

  private:
    /** Distinct requests, expected replies, and the per-pass mix. */
    void
    buildRequests(Context &ctx)
    {
        _requests.clear();
        _mix.clear();
        auto add = [&](RequestKind kind, std::string payload,
                       size_t copies) {
            _requests.push_back({kind, std::move(payload), {}});
            _mix.insert(_mix.end(), copies, _requests.size() - 1);
        };
        // Per pass: 4 control requests (20%), 4 cheap sample
        // and evaluate requests, 4 trace-stats and 8 simulate. The
        // median request then falls among the trace-stats replies,
        // whose latency is steady, not at the edge between two kinds.
        add(RequestKind::Ping, "ping-" + std::to_string(ctx.opts.seed), 2);
        add(RequestKind::Stats, "", 2);
        for (const char *wl : {"gru", "spt"})
            add(RequestKind::Sample,
                serve::encodeFields({wl, "sieve", "0.4", kCap}), 1);
        add(RequestKind::Evaluate,
            serve::encodeFields({"gms", "sieve", "ampere", "0.4", kCap}), 1);
        add(RequestKind::Evaluate,
            serve::encodeFields({"bert", "pks", "ampere", "0.4", kCap}), 1);
        for (const char *wl : {"gru", "bert"})
            add(RequestKind::TraceStats,
                serve::encodeFields({"0.4", "8", "0", kCap, wl}), 2);
        std::vector<std::string> traces = tracePool(ctx.opts.seed, 4);
        for (const std::string &t : traces)
            add(RequestKind::Simulate, serve::encodeFields({"ampere", "0", t}),
                8 / traces.size());

        Span s(ctx.spans, "bench.expected");
        serve::RequestRunner offline({kJobs});
        for (Request &r : _requests) {
            if (r.kind == RequestKind::Stats)
                continue;
            Expected<std::string> reply = offline.handle(r.kind, r.payload);
            if (!reply.ok())
                throw std::runtime_error(reply.error().toString());
            r.expected = std::move(reply).value();
        }
    }

    /** Seeded order of the mix for one pass. */
    std::vector<size_t>
    shuffled(uint64_t pass) const
    {
        std::vector<size_t> order(_mix.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        uint64_t state = _seed ^ 0x51ed2701ULL ^ (0x2545f491ULL * (pass + 1));
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[splitmix(state) % i]);
        return order;
    }

    /** Empty if the reply is right, else the layer count it adds to. */
    static std::string
    check(const Request &r,
          const Expected<serve::ServeClient::Response> &reply)
    {
        if (!reply.ok())
            return "serve.errors";
        const serve::ServeClient::Response &resp = reply.value();
        if (resp.status == serve::ResponseStatus::ShuttingDown)
            return "serve.rejected";
        if (resp.status != serve::ResponseStatus::Ok) {
            Expected<serve::WireError> e = serve::decodeError(resp.payload);
            bool admission = e.ok() && e.value().error.source == "server";
            return admission ? "serve.rejected" : "serve.errors";
        }
        bool ok = r.kind == RequestKind::Stats ? statsShapeOk(resp.payload)
                                               : resp.payload == r.expected;
        return ok ? "" : "serve.errors";
    }

    void
    stopServer()
    {
        _client.reset();
        if (_server) {
            _server->requestShutdown();
            if (_loop.joinable())
                _loop.join();
            _server.reset();
        }
    }

    uint64_t _seed = 0;
    std::vector<Request> _requests;
    std::vector<size_t> _mix; //!< request index per slot of one pass
    std::unique_ptr<serve::Server> _server;
    std::thread _loop;
    std::optional<serve::ServeClient> _client;
    uint64_t _passes = 0;
    size_t _setupChecks = 0;
    size_t _setupFailed = 0;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeServeMix()
{
    return std::make_unique<ServeMix>();
}

} // namespace perfbench
