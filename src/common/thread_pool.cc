#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace sieve {

size_t
ThreadPool::defaultJobs()
{
    if (auto jobs = envUint64("SIEVE_JOBS", 1, kMaxJobs))
        return static_cast<size_t>(*jobs);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(size_t workers)
{
    if (workers == 0)
        workers = defaultJobs();
    // Pools are numbered process-wide so worker thread tags stay
    // unique in logs and traces even with several pools alive.
    static std::atomic<int> g_pool_ids{0};
    int pool_id = g_pool_ids.fetch_add(1, std::memory_order_relaxed);
    // One worker = serial mode; the helpers bypass the queue, so no
    // thread is needed. Still spawn it so submit() works uniformly.
    _workers.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
        // Built with append() rather than an operator+ chain: GCC 12
        // -O3 misanalyzes the temporary chain and raises a bogus
        // -Wrestrict, which the WERROR CI build turns fatal.
        std::string tag = "p";
        tag += std::to_string(pool_id);
        tag += ".w";
        tag += std::to_string(i);
        _workers.emplace_back([this, tag = std::move(tag)] {
            obs::setThreadTag(tag);
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        _stopping = true;
    }
    _cv.notify_all();
    for (auto &w : _workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    SIEVE_ASSERT(task, "ThreadPool::submit called with empty task");
    // Queue depth is a scheduling artifact, never --jobs-invariant.
    static obs::Counter &c_submitted =
        obs::counter("pool.tasks.submitted", obs::Stability::Volatile);
    static obs::Gauge &g_depth = obs::gauge("pool.queue.depth");
    {
        std::lock_guard<std::mutex> lock(_mu);
        SIEVE_ASSERT(!_stopping, "submit on a stopping ThreadPool");
        _queue.push_back(std::move(task));
        g_depth.set(
            static_cast<int64_t>(_queue.size() - _queueHead));
    }
    c_submitted.add();
    _cv.notify_one();
}

void
ThreadPool::workerLoop()
{
    static obs::Counter &c_executed =
        obs::counter("pool.tasks.executed", obs::Stability::Volatile);
    static obs::Histogram &h_task_ns =
        obs::histogram("pool.task.ns");
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _cv.wait(lock, [this] {
                return _stopping || _queueHead < _queue.size();
            });
            if (_queueHead >= _queue.size()) {
                if (_stopping)
                    return;
                continue;
            }
            task = std::move(_queue[_queueHead++]);
            // Keep the depth gauge honest on the drain side too, so
            // the telemetry timeline sees the queue empty out rather
            // than flat-lining at the last submitted depth.
            static obs::Gauge &g_depth =
                obs::gauge("pool.queue.depth");
            g_depth.set(
                static_cast<int64_t>(_queue.size() - _queueHead));
            // Reclaim the drained prefix once it dominates the queue.
            if (_queueHead > 64 && _queueHead * 2 > _queue.size()) {
                _queue.erase(_queue.begin(),
                             _queue.begin() +
                                 static_cast<ptrdiff_t>(_queueHead));
                _queueHead = 0;
            }
        }
        // One clock pair feeds both the latency histogram and the
        // trace span; with observability off this is two branches.
        bool timed = obs::metricsEnabled() || obs::traceEnabled();
        uint64_t t0 = timed ? obs::nowNs() : 0;
        task();
        if (timed) {
            uint64_t dur = obs::nowNs() - t0;
            h_task_ns.record(dur);
            obs::emitCompleteEvent("pool", "task", t0, dur);
        }
        c_executed.add();
    }
}

namespace detail {

void
runIndexed(ThreadPool &pool, size_t n,
           const std::function<void(size_t)> &body)
{
    // Batch counters are Volatile: the serial path (--jobs 1) never
    // reaches runIndexed, so these tallies depend on the job count by
    // construction.
    static obs::Counter &c_batches =
        obs::counter("pool.batches", obs::Stability::Volatile);
    static obs::Counter &c_items =
        obs::counter("pool.batch.items", obs::Stability::Volatile);
    static obs::Counter &c_caller_iters = obs::counter(
        "pool.batch.caller_iterations", obs::Stability::Volatile);
    c_batches.add();
    c_items.add(n);
    obs::Span batch_span("pool", "batch",
                         "n=" + std::to_string(n));

    // Shared ownership: pool workers may wake on a drained batch
    // after the caller has already returned, so the batch state must
    // outlive this frame.
    struct Shared
    {
        std::function<void(size_t)> body;
        size_t n = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mu;
        std::condition_variable cv;
        std::exception_ptr error;
        size_t errorIndex = std::numeric_limits<size_t>::max();
    };
    auto shared = std::make_shared<Shared>();
    shared->body = body;
    shared->n = n;

    auto drive = [shared](bool caller) {
        size_t executed = 0;
        for (;;) {
            size_t i = shared->next.fetch_add(1);
            if (i >= shared->n)
                break;
            ++executed;
            try {
                shared->body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared->mu);
                if (i < shared->errorIndex) {
                    shared->errorIndex = i;
                    shared->error = std::current_exception();
                }
            }
            if (shared->done.fetch_add(1) + 1 == shared->n) {
                std::lock_guard<std::mutex> lock(shared->mu);
                shared->cv.notify_all();
            }
        }
        // "Steals": iterations the caller ran itself instead of a
        // pool worker.
        if (caller && executed > 0)
            c_caller_iters.add(executed);
    };

    size_t drivers = std::min(pool.numWorkers(), n);
    for (size_t d = 0; d < drivers; ++d)
        pool.submit([drive] { drive(false); });

    // The caller participates too: steal iterations until the index
    // space is exhausted, then wait for stragglers. Self-driving also
    // makes nested fan-out safe — an inner batch never waits on pool
    // capacity held by its own ancestors.
    drive(true);
    {
        std::unique_lock<std::mutex> lock(shared->mu);
        shared->cv.wait(lock,
                        [&] { return shared->done.load() == n; });
        if (shared->error)
            std::rethrow_exception(shared->error);
    }
}

} // namespace detail

} // namespace sieve
