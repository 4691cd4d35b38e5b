/**
 * @file
 * Tests for the deterministic parallel-execution substrate: work
 * coverage, result ordering, serial-mode equivalence, exception
 * propagation, and the SIEVE_JOBS default resolution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace sieve {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelMapPreservesInputOrder)
{
    ThreadPool pool(4);
    constexpr size_t n = 257;
    std::vector<size_t> out = parallelMap(
        pool, n, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapSupportsMoveOnlyResults)
{
    ThreadPool pool(2);
    auto out = parallelMap(pool, 16, [](size_t i) {
        return std::make_unique<size_t>(i + 1);
    });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(*out[i], i + 1);
}

TEST(ThreadPool, OneWorkerRunsInlineInIndexOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numWorkers(), 1u);

    std::vector<size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    parallelFor(pool, 64, [&](size_t i) {
        // Serial mode must run on the calling thread, in order —
        // this is what makes --jobs 1 reproduce legacy behavior
        // including stdout interleaving.
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionRethrownLowestFailingIndexFirst)
{
    ThreadPool pool(4);
    try {
        parallelFor(pool, 100, [](size_t i) {
            if (i >= 40)
                throw std::runtime_error("task " +
                                         std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 40");
    }
}

TEST(ThreadPool, PoolIsReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        parallelFor(pool, 100,
                    [&](size_t i) { sum.fetch_add(i + 1); });
        EXPECT_EQ(sum.load(), 5050u) << "round " << round;
    }
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlock)
{
    // Tasks that themselves fan out must not deadlock even when the
    // outer batch occupies every worker: the waiting caller helps
    // drive its own batch.
    ThreadPool pool(2);
    std::atomic<size_t> leaves{0};
    parallelFor(pool, 4, [&](size_t) {
        parallelFor(pool, 4, [&](size_t) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 16u);
}

TEST(ThreadPool, DefaultJobsHonorsEnvVar)
{
    ::setenv("SIEVE_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);

    // Non-numeric values fall back to hardware concurrency (>= 1).
    ::setenv("SIEVE_JOBS", "lots", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);

    ::unsetenv("SIEVE_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, DefaultJobsRefusesValuesOutsideItsRange)
{
    // Only defaultJobs() is called: no pool is built from these.
    ::unsetenv("SIEVE_JOBS");
    const size_t fallback = ThreadPool::defaultJobs();

    ::setenv("SIEVE_JOBS", std::to_string(ThreadPool::kMaxJobs).c_str(),
             1);
    EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::kMaxJobs);

    const std::string above = std::to_string(ThreadPool::kMaxJobs + 1);
    for (const char *bad : {above.c_str(), "1000000",
                            "18446744073709551615", "0", "4x", "-2", ""}) {
        ::setenv("SIEVE_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultJobs(), fallback) << "'" << bad << "'";
    }
    ::unsetenv("SIEVE_JOBS");
}

TEST(ThreadPool, ZeroWorkerRequestResolvesDefault)
{
    ::unsetenv("SIEVE_JOBS");
    ThreadPool pool(0);
    EXPECT_GE(pool.numWorkers(), 1u);
}

TEST(ThreadPool, EmptyRangeIsANoOp)
{
    ThreadPool pool(2);
    bool ran = false;
    parallelFor(pool, 0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
    EXPECT_TRUE(parallelMap(pool, 0, [](size_t i) { return i; })
                    .empty());
}

} // namespace
} // namespace sieve
