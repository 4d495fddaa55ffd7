/**
 * @file
 * Tests for the work-queue ThreadPool behind the parallel experiment
 * engine: completion, result/exception propagation through futures,
 * helping waits with nested submission, and the 0/1/N worker modes.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "config/runspec.hh"

namespace mcd {
namespace {

TEST(ThreadPool, CompletesAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 200; ++i)
        futs.push_back(pool.submit([&count] { ++count; }));
    for (auto &f : futs)
        pool.wait(f);
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ReturnsValuesThroughFutures)
{
    ThreadPool pool(2);
    auto f1 = pool.submit([] { return 41; });
    auto f2 = pool.submit([] { return std::string("hi"); });
    EXPECT_EQ(pool.wait(f1) + 1, 42);
    EXPECT_EQ(pool.wait(f2), "hi");
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    std::thread::id ran;
    auto f = pool.submit([&ran] { ran = std::this_thread::get_id(); });
    pool.wait(f);
    EXPECT_EQ(ran, std::this_thread::get_id());
}

TEST(ThreadPool, SingleWorkerRunsEachTaskOnce)
{
    // wait() is a helping wait: the caller runs queued tasks alongside
    // the worker, so even one worker gives no completion order. What
    // the design guarantees is that every task runs exactly once.
    ThreadPool pool(1);
    std::mutex mtx;
    std::vector<int> ran;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 8; ++i) {
        futs.push_back(pool.submit([&mtx, &ran, i] {
            std::lock_guard<std::mutex> lk(mtx);
            ran.push_back(i);
        }));
    }
    for (auto &f : futs)
        pool.wait(f);
    std::sort(ran.begin(), ran.end());
    std::vector<int> want(8);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(ran, want);
}

TEST(ThreadPool, ExceptionPropagatesFromWait)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(pool.wait(f), std::runtime_error);
}

TEST(ThreadPool, ExceptionPropagatesInlineMode)
{
    ThreadPool pool(0);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(pool.wait(f), std::runtime_error);
}

TEST(ThreadPool, ManyThrowingTasksNeitherTerminateNorDeadlock)
{
    // One throwing task per pending wait, across every worker mode:
    // each exception must arrive at its own waiter, the pool must
    // keep serving later tasks, and teardown must still join cleanly.
    for (unsigned workers : {0u, 1u, 4u}) {
        ThreadPool pool(workers);
        std::vector<std::future<int>> futs;
        for (int i = 0; i < 32; ++i) {
            futs.push_back(pool.submit([i]() -> int {
                if (i % 3 == 0)
                    throw std::runtime_error("task " + std::to_string(i));
                return i;
            }));
        }
        int caught = 0;
        int sum = 0;
        for (auto &f : futs) {
            try {
                sum += pool.wait(f);
            } catch (const std::runtime_error &) {
                ++caught;
            }
        }
        EXPECT_EQ(caught, 11) << workers << " workers";
        // The survivors all completed with their own values.
        int want = 0;
        for (int i = 0; i < 32; ++i)
            want += i % 3 == 0 ? 0 : i;
        EXPECT_EQ(sum, want) << workers << " workers";
        // The pool is still alive and usable after the failures.
        auto after = pool.submit([] { return 99; });
        EXPECT_EQ(pool.wait(after), 99);
    }
}

TEST(ThreadPool, NestedHelpingWaitSurvivesInnerThrow)
{
    // The helping wait may execute the throwing inner task on the
    // outer task's thread; the exception must still route through the
    // inner future, not unwind the helper.
    ThreadPool pool(1);
    auto outer = pool.submit([&pool] {
        auto bad = pool.submit([]() -> int {
            throw std::runtime_error("inner");
        });
        auto good = pool.submit([] { return 5; });
        int got = pool.wait(good);
        EXPECT_THROW(pool.wait(bad), std::runtime_error);
        return got;
    });
    EXPECT_EQ(pool.wait(outer), 5);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock)
{
    // A single worker forces the nested waits to be served by the
    // helping loop: the outer task's wait() must drain the inner
    // tasks itself.
    ThreadPool pool(1);
    auto outer = pool.submit([&pool] {
        std::vector<std::future<int>> inner;
        for (int i = 0; i < 5; ++i)
            inner.push_back(pool.submit([i] { return i * i; }));
        int sum = 0;
        for (auto &f : inner)
            sum += pool.wait(f);
        return sum;
    });
    EXPECT_EQ(pool.wait(outer), 0 + 1 + 4 + 9 + 16);
}

TEST(ThreadPool, DeeplyNestedSubmit)
{
    ThreadPool pool(2);
    auto outer = pool.submit([&pool] {
        auto mid = pool.submit([&pool] {
            auto leaf = pool.submit([] { return 7; });
            return pool.wait(leaf) + 10;
        });
        return pool.wait(mid) + 100;
    });
    EXPECT_EQ(pool.wait(outer), 117);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    for (unsigned workers : {0u, 1u, 4u}) {
        ThreadPool pool(workers);
        std::vector<std::atomic<int>> hits(64);
        pool.parallelFor(hits.size(),
                         [&hits](std::size_t i) { ++hits[i]; });
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(16, [](std::size_t i) {
            if (i == 9)
                throw std::runtime_error("index 9");
        }),
        std::runtime_error);
}

TEST(ThreadPool, RunPendingTaskHelpsExplicitly)
{
    ThreadPool pool(0);
    EXPECT_FALSE(pool.runPendingTask());    // nothing queued
}

TEST(ThreadPool, JobsFromConfigLayer)
{
    // The MCD_JOBS knob now resolves through config::RunSpec::jobs():
    // a positive value is taken as-is, the 0 default maps to hardware
    // concurrency, and junk is a hard configuration error instead of
    // the old silent fallback.
    ::setenv("MCD_JOBS", "3", 1);
    EXPECT_EQ(config::RunSpec::resolve().jobs(), 3);
    ::setenv("MCD_JOBS", "0", 1);
    EXPECT_EQ(config::RunSpec::resolve().jobs(),
              static_cast<int>(ThreadPool::hardwareJobs()));
    ::setenv("MCD_JOBS", "not-a-number", 1);
    EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    ::setenv("MCD_JOBS", "-2", 1);
    EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    ::unsetenv("MCD_JOBS");
    EXPECT_EQ(config::RunSpec::resolve().jobs(),
              static_cast<int>(ThreadPool::hardwareJobs()));
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        // No waits: the destructor must still run everything queued.
    }
    EXPECT_EQ(count.load(), 50);
}

} // namespace
} // namespace mcd
