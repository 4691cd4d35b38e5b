#include "serve/server.hh"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"

namespace sieve::serve {

namespace {

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/** O_NONBLOCK so the event loop's syscalls can never stall it. */
bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Stable request counters (functions of the request history). */
obs::Counter &
acceptedCounter()
{
    static obs::Counter &c =
        obs::counter("serve.requests.accepted");
    return c;
}

obs::Counter &
completedCounter()
{
    static obs::Counter &c =
        obs::counter("serve.requests.completed");
    return c;
}

obs::Counter &
errorsCounter()
{
    static obs::Counter &c = obs::counter("serve.requests.errors");
    return c;
}

obs::Counter &
connectionsCounter()
{
    static obs::Counter &c =
        obs::counter("serve.connections.accepted");
    return c;
}

} // namespace

/**
 * One client. All fields are guarded by Server::_mu; the fd is only
 * used by the event-loop thread. Frames execute strictly in arrival
 * order per connection (responses carry no request id, so order is
 * the correlation), while distinct connections run concurrently on
 * the pool up to the admission bounds.
 */
struct Server::Connection
{
    Connection(int fd_, uint64_t id_)
        : fd(fd_), id(id_),
          parser(kRequestMagic,
                 "client " + std::to_string(id_))
    {
    }

    int fd;
    uint64_t id;
    FrameParser parser;
    std::deque<Frame> pending; //!< admitted, waiting for the pool
    bool executing = false;    //!< one frame on a pool worker
    std::string outbox;        //!< encoded responses awaiting send
    bool closeAfterFlush = false; //!< poisoned stream / drain reply
    bool eofSeen = false;

    size_t
    inFlight() const
    {
        return pending.size() + (executing ? 1 : 0);
    }
};

Server::Server(ServerConfig config) : _config(std::move(config))
{
    buildRegistry();
}

Server::~Server()
{
    if (_registry.started())
        _registry.stopAll();
    if (_wakeRead >= 0)
        ::close(_wakeRead);
    if (_wakeWrite >= 0)
        ::close(_wakeWrite);
}

void
Server::buildRegistry()
{
    // The obs flush is the *stop* of the first-started service, so
    // reverse shutdown runs it dead last — after the listener closed,
    // the pool joined, and the runner (tier pool + sim caches +
    // workload contexts) released, nothing counts metrics anymore.
    _registry.add({"obs", {}, nullptr, [] { obs::flushObs(); }});
    _registry.add({"telemetry",
                   {"obs"},
                   nullptr,
                   // The sampler itself is armed by configureObs and
                   // stopped inside flushObs; this entry pins its
                   // place in the lifecycle order.
                   nullptr});
    _registry.add({"runner",
                   {"obs"},
                   [this]() -> Expected<void> {
                       RunnerConfig cfg;
                       cfg.jobs = _config.jobs;
                       cfg.pingDelayForTests =
                           _config.pingDelayForTests;
                       _runner =
                           std::make_unique<RequestRunner>(cfg);
                       return {};
                   },
                   [this] { _runner.reset(); }});
    _registry.add({"pool",
                   {"runner"},
                   [this]() -> Expected<void> {
                       _pool = std::make_unique<ThreadPool>(
                           _config.jobs);
                       return {};
                   },
                   [this] { _pool.reset(); }});
    _registry.add(
        {"listener",
         {"pool", "telemetry"},
         [this]() -> Expected<void> {
             if (_config.socketPath.empty()) {
                 return Error{ErrorKind::Validation,
                              "serve needs a socket path",
                              "server"};
             }
             sockaddr_un addr{};
             if (_config.socketPath.size() >=
                 sizeof(addr.sun_path)) {
                 return Error{ErrorKind::Validation,
                              "socket path longer than " +
                                  std::to_string(
                                      sizeof(addr.sun_path) - 1) +
                                  " bytes",
                              _config.socketPath};
             }
             // The wake pipe lives until ~Server: requestShutdown
             // (any thread, or a signal handler) and pool
             // completions write to it without a lock, so closing
             // it on stop would race those writes.
             if (_wakeRead < 0) {
                 int pipe_fds[2];
                 if (::pipe(pipe_fds) != 0) {
                     return Error{ErrorKind::Io,
                                  errnoMessage("pipe"), "server"};
                 }
                 _wakeRead = pipe_fds[0];
                 _wakeWrite = pipe_fds[1];
             }

             _listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
             if (_listenFd < 0) {
                 return Error{ErrorKind::Io,
                              errnoMessage("socket"),
                              _config.socketPath};
             }
             ::unlink(_config.socketPath.c_str());
             addr.sun_family = AF_UNIX;
             std::strncpy(addr.sun_path,
                          _config.socketPath.c_str(),
                          sizeof(addr.sun_path) - 1);
             if (::bind(_listenFd,
                        reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) != 0 ||
                 ::listen(_listenFd, 64) != 0) {
                 return Error{ErrorKind::Io,
                              errnoMessage("bind/listen"),
                              _config.socketPath};
             }
             if (!setNonBlocking(_listenFd) ||
                 !setNonBlocking(_wakeRead)) {
                 return Error{ErrorKind::Io,
                              errnoMessage("fcntl"), "server"};
             }
             return {};
         },
         [this] {
             std::lock_guard<std::mutex> lock(_mu);
             for (auto &[fd, conn] : _connections) {
                 ::close(fd);
                 conn->fd = -1;
             }
             _connections.clear();
             if (_listenFd >= 0)
                 ::close(_listenFd);
             _listenFd = -1;
             ::unlink(_config.socketPath.c_str());
         }});
}

Expected<void>
Server::start()
{
    // Touch every Stable serve.* counter up front so the exported
    // counter surface is a function of the request history alone —
    // a clean run reports serve.requests.errors=0 instead of
    // omitting the key entirely.
    acceptedCounter();
    completedCounter();
    errorsCounter();
    connectionsCounter();
    return _registry.startAll();
}

void
Server::requestShutdown()
{
    _shutdownRequested.store(true, std::memory_order_release);
    if (_wakeWrite >= 0) {
        char byte = 'w';
        // Best-effort: a full pipe already guarantees a wakeup.
        [[maybe_unused]] ssize_t n =
            ::write(_wakeWrite, &byte, 1);
    }
}

void
Server::drainWakePipe()
{
    char buf[256];
    while (::read(_wakeRead, buf, sizeof(buf)) > 0) {
    }
}

void
Server::enqueueResponse(const std::shared_ptr<Connection> &conn,
                        ResponseStatus status,
                        std::string_view payload)
{
    if (conn->fd < 0)
        return; // connection dropped while the request ran
    conn->outbox += encodeResponse(status, payload);
}

void
Server::dispatchFrame(const std::shared_ptr<Connection> &conn,
                      Frame frame)
{
    if (_shutdownRequested.load(std::memory_order_acquire)) {
        obs::counter("serve.requests.rejected.shutdown",
                     obs::Stability::Volatile)
            .add();
        enqueueResponse(
            conn, ResponseStatus::ShuttingDown,
            encodeError(Error{ErrorKind::Validation,
                              "server is draining; request "
                              "rejected",
                              "server"}));
        conn->closeAfterFlush = true;
        return;
    }
    if (!knownRequestKind(frame.kind)) {
        errorsCounter().add();
        enqueueResponse(
            conn, ResponseStatus::Error,
            encodeError(Error{ErrorKind::Parse,
                              "unknown request kind " +
                                  std::to_string(frame.kind),
                              "client " + std::to_string(conn->id)}));
        return;
    }
    // Bounded admission: both rejections depend on timing (what else
    // is in flight), so they are Volatile and do not touch the
    // Stable accepted/completed/errors set.
    if (_inFlight >= _config.maxQueue) {
        obs::counter("serve.requests.rejected.queue",
                     obs::Stability::Volatile)
            .add();
        enqueueResponse(
            conn, ResponseStatus::Error,
            encodeError(Error{ErrorKind::Validation,
                              "server saturated (" +
                                  std::to_string(_inFlight) +
                                  " requests in flight)",
                              "server"}));
        return;
    }
    if (conn->inFlight() >= _config.perClientQuota) {
        obs::counter("serve.requests.rejected.quota",
                     obs::Stability::Volatile)
            .add();
        enqueueResponse(
            conn, ResponseStatus::Error,
            encodeError(Error{ErrorKind::Validation,
                              "per-client quota of " +
                                  std::to_string(
                                      _config.perClientQuota) +
                                  " in-flight requests exceeded",
                              "server"}));
        return;
    }

    acceptedCounter().add();
    ++_inFlight;
    conn->pending.push_back(std::move(frame));
    startNext(conn);
}

void
Server::startNext(const std::shared_ptr<Connection> &conn)
{
    // _mu held. One frame per connection executes at a time, so
    // responses leave in request order.
    if (conn->executing || conn->pending.empty())
        return;
    Frame frame = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->executing = true;

    _pool->submit([this, conn, frame = std::move(frame)]() mutable {
        auto t0 = std::chrono::steady_clock::now();
        Expected<std::string> result = _runner->handle(
            static_cast<RequestKind>(frame.kind), frame.payload);
        uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        obs::histogram("serve.request.latency_ns").record(ns);

        std::lock_guard<std::mutex> lock(_mu);
        if (result.ok()) {
            completedCounter().add();
            enqueueResponse(conn, ResponseStatus::Ok,
                            result.value());
        } else {
            errorsCounter().add();
            enqueueResponse(conn, ResponseStatus::Error,
                            encodeError(result.error()));
        }
        conn->executing = false;
        SIEVE_ASSERT(_inFlight > 0, "in-flight underflow");
        --_inFlight;
        startNext(conn);
        if (_wakeWrite >= 0) {
            char byte = 'r';
            [[maybe_unused]] ssize_t n =
                ::write(_wakeWrite, &byte, 1);
        }
    });
}

void
Server::acceptClients()
{
    while (true) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN / EWOULDBLOCK: drained
        connectionsCounter().add();
        std::lock_guard<std::mutex> lock(_mu);
        auto conn =
            std::make_shared<Connection>(fd, _nextClientId++);
        _connections[fd] = std::move(conn);
    }
}

void
Server::readClient(const std::shared_ptr<Connection> &conn)
{
    char buf[64 * 1024];
    while (true) {
        ssize_t n = ::recv(conn->fd, buf, sizeof(buf),
                           MSG_DONTWAIT);
        if (n > 0) {
            conn->parser.feed(buf, static_cast<size_t>(n));
            while (!conn->closeAfterFlush) {
                Expected<std::optional<Frame>> next =
                    conn->parser.next();
                if (!next.ok()) {
                    // Malformed header/checksum: the stream offset
                    // can no longer be trusted. One structured error
                    // response, then flush-and-close.
                    errorsCounter().add();
                    enqueueResponse(conn, ResponseStatus::Error,
                                    encodeError(next.error()));
                    conn->closeAfterFlush = true;
                    break;
                }
                if (!next.value().has_value())
                    break;
                dispatchFrame(conn, std::move(*next.value()));
            }
            if (conn->closeAfterFlush)
                return; // poisoned: ignore everything after
            continue;
        }
        if (n == 0) {
            conn->eofSeen = true;
            if (!conn->parser.idle() && !conn->closeAfterFlush) {
                // Half-closed mid-frame: answer with a structured
                // truncation error instead of silently dropping.
                errorsCounter().add();
                enqueueResponse(
                    conn, ResponseStatus::Error,
                    encodeError(Error{
                        ErrorKind::Io,
                        "connection closed inside a frame",
                        "client " + std::to_string(conn->id), 0,
                        conn->parser.consumed()}));
                conn->closeAfterFlush = true;
            }
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == EINTR)
            return;
        // Hard socket error: nothing more can reach this client.
        conn->eofSeen = true;
        conn->closeAfterFlush = true;
        conn->outbox.clear();
        return;
    }
}

void
Server::writeClient(const std::shared_ptr<Connection> &conn)
{
    while (!conn->outbox.empty()) {
        ssize_t n = ::send(conn->fd, conn->outbox.data(),
                           conn->outbox.size(),
                           MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
            conn->outbox.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == EINTR)
            return;
        conn->outbox.clear();
        conn->eofSeen = true;
        conn->closeAfterFlush = true;
        return;
    }
}

bool
Server::drained()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_inFlight > 0)
        return false;
    for (const auto &[fd, conn] : _connections) {
        if (!conn->outbox.empty() || conn->executing)
            return false;
    }
    return true;
}

void
Server::eventLoop()
{
    while (true) {
        std::vector<pollfd> fds;
        std::vector<std::shared_ptr<Connection>> polled;
        {
            std::lock_guard<std::mutex> lock(_mu);
            fds.push_back({_wakeRead, POLLIN, 0});
            fds.push_back({_listenFd, POLLIN, 0});
            for (auto &[fd, conn] : _connections) {
                short events = 0;
                if (!conn->closeAfterFlush && !conn->eofSeen)
                    events |= POLLIN;
                if (!conn->outbox.empty())
                    events |= POLLOUT;
                fds.push_back({fd, events, 0});
                polled.push_back(conn);
            }
        }

        // 100 ms timeout: the wake pipe covers every state change,
        // the timeout is a belt-and-braces bound on a lost wakeup.
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0 && errno != EINTR)
            fatal("poll failed: ", std::strerror(errno));

        if (fds[0].revents & POLLIN)
            drainWakePipe();
        if (fds[1].revents & POLLIN)
            acceptClients();

        for (size_t i = 0; i < polled.size(); ++i) {
            const pollfd &pfd = fds[i + 2];
            std::lock_guard<std::mutex> lock(_mu);
            if (polled[i]->fd < 0)
                continue;
            if (pfd.revents & (POLLIN | POLLHUP))
                if (!polled[i]->eofSeen &&
                    !polled[i]->closeAfterFlush)
                    readClient(polled[i]);
            if (!polled[i]->outbox.empty())
                writeClient(polled[i]);
        }

        // Retire connections with nothing left to say.
        {
            std::lock_guard<std::mutex> lock(_mu);
            for (auto it = _connections.begin();
                 it != _connections.end();) {
                auto &conn = it->second;
                bool flushed = conn->outbox.empty() &&
                               conn->inFlight() == 0;
                if (flushed &&
                    (conn->closeAfterFlush || conn->eofSeen)) {
                    ::close(conn->fd);
                    conn->fd = -1;
                    it = _connections.erase(it);
                } else {
                    ++it;
                }
            }
        }

        if (_shutdownRequested.load(std::memory_order_acquire) &&
            drained())
            return;
    }
}

void
Server::run()
{
    SIEVE_ASSERT(_registry.started(), "run() before start()");
    eventLoop();
    _registry.stopAll();
}

namespace {
std::atomic<Server *> g_signalServer{nullptr};

void
onShutdownSignal(int)
{
    Server *server =
        g_signalServer.load(std::memory_order_acquire);
    if (server)
        server->requestShutdown();
}
} // namespace

void
installShutdownSignalHandlers(Server &server)
{
    g_signalServer.store(&server, std::memory_order_release);
    struct sigaction sa{};
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

} // namespace sieve::serve
