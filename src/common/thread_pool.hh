/**
 * @file
 * Deterministic parallel-execution substrate.
 *
 * A fixed-size worker pool plus order-preserving `parallelFor` /
 * `parallelMap` helpers. The pool is the one concurrency primitive in
 * the library: the evaluation harness, the suite runner, and the
 * trace-simulation batcher all fan work out through it.
 *
 * Determinism contract: parallelism must never change results. Tasks
 * derive any randomness from the named splittable seeds attached to
 * their *inputs* (workload seed labels, invocation noise seeds) —
 * never from worker identity, scheduling order, or wall-clock time —
 * and results are always collected in submission order. A run with
 * `--jobs 8` is therefore byte-identical to a run with `--jobs 1`.
 *
 * Failure contract: `fatal()` / `panic()` terminate the whole process
 * regardless of which worker thread they fire on (they call exit /
 * abort), so user-error and invariant failures propagate exactly as
 * in serial code. C++ exceptions thrown by a task are captured and
 * rethrown on the calling thread, first failing index first.
 */

#ifndef SIEVE_COMMON_THREAD_POOL_HH
#define SIEVE_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace sieve {

/**
 * Fixed-size worker pool.
 *
 * Workers are started once in the constructor and joined in the
 * destructor. `numWorkers() == 1` is the serial mode: the helpers
 * below then run entirely on the calling thread, bypassing the
 * workers, so `--jobs 1` reproduces the legacy serial execution
 * exactly (including any stdout ordering inside tasks).
 */
class ThreadPool
{
  public:
    /**
     * @param workers worker-thread count; 0 resolves through
     *        defaultJobs() (SIEVE_JOBS env var, else
     *        hardware_concurrency).
     */
    explicit ThreadPool(size_t workers = 0);

    /** Joins all workers; pending tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (>= 1). */
    size_t numWorkers() const { return _workers.size() ? _workers.size() : 1; }

    /**
     * Enqueue one task. Low-level building block; most callers want
     * parallelFor / parallelMap, which also wait and propagate
     * failures.
     */
    void submit(std::function<void()> task);

    /** Largest SIEVE_JOBS accepted; a bigger value is ignored. */
    static constexpr size_t kMaxJobs = 1024;

    /**
     * Resolve the process-wide default worker count: the SIEVE_JOBS
     * environment variable if it is an integer in [1, kMaxJobs],
     * otherwise std::thread::hardware_concurrency() (>= 1). A bad
     * value is warned about (common/env.hh).
     */
    static size_t defaultJobs();

  private:
    void workerLoop();

    std::vector<std::thread> _workers;
    std::vector<std::function<void()>> _queue; //!< FIFO via head index
    size_t _queueHead = 0;
    std::mutex _mu;
    std::condition_variable _cv;
    bool _stopping = false;
};

namespace detail {

/** Shared state of one parallelFor: work distribution + completion. */
void runIndexed(ThreadPool &pool, size_t n,
                const std::function<void(size_t)> &body);

} // namespace detail

/**
 * Run `body(i)` for every i in [0, n), fanning out over the pool.
 * Blocks until all iterations finish. With one worker (or n <= 1) the
 * loop runs inline on the calling thread in index order. Exceptions
 * are rethrown on the caller, lowest failing index first.
 */
inline void
parallelFor(ThreadPool &pool, size_t n,
            const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (pool.numWorkers() == 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    detail::runIndexed(pool, n, body);
}

/**
 * Map `fn(i)` over [0, n) in parallel, returning the results in index
 * order. The result type only needs to be movable (not
 * default-constructible). Same serial-mode and failure semantics as
 * parallelFor.
 */
template <typename Fn>
auto
parallelMap(ThreadPool &pool, size_t n, Fn &&fn)
    -> std::vector<decltype(fn(size_t{}))>
{
    using R = decltype(fn(size_t{}));
    std::vector<std::optional<R>> slots(n);
    parallelFor(pool, n,
                [&](size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace sieve

#endif // SIEVE_COMMON_THREAD_POOL_HH
