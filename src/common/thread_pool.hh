/**
 * @file
 * A small work-queue thread pool for the parallel experiment engine.
 *
 * Design notes:
 *
 *  - submit() returns a std::future; exceptions thrown by the task
 *    are captured and rethrown from future::get().
 *  - wait() is a *helping* wait: while the future is not ready the
 *    calling thread drains pending tasks from the queue. This makes
 *    nested submission safe — a task running on a pool worker may
 *    submit sub-tasks to the same pool and wait() on them without
 *    ever deadlocking, even with a single worker. The experiment
 *    runner no longer nests waits (a stage is submitted once its
 *    inputs finish, and runMatrix blocks on its rows without
 *    helping, so a pool of N workers keeps at most N threads
 *    runnable), but the traced matrix replica in perfbench/driver.cc
 *    still does.
 *  - A pool constructed with zero workers degenerates to inline
 *    execution at submit() time, which makes jobs=1 runs take exactly
 *    the serial code path (useful for bit-identical comparisons).
 */

#ifndef MCD_COMMON_THREAD_POOL_HH
#define MCD_COMMON_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mcd {

class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 = run tasks inline. */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workerCount() const { return numWorkers; }

    /** Enqueue a callable; its result (or exception) goes to the future. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        if (numWorkers == 0) {
            (*task)();
            return fut;
        }
        {
            std::lock_guard<std::mutex> lk(mutex);
            queue.emplace_back([task] { (*task)(); });
        }
        cv.notify_one();
        return fut;
    }

    /**
     * Helping wait: drain pool work until @p fut is ready, then get it.
     * Safe to call from inside a pool task (nested waits).
     */
    template <typename T>
    T
    wait(std::future<T> &fut)
    {
        helpUntilReady(fut);
        return fut.get();
    }

    /**
     * Hardware concurrency, never less than 1. Callers wanting the
     * MCD_JOBS / --jobs knob go through config::RunSpec::jobs(), which
     * maps the option's 0 default here.
     */
    static unsigned hardwareJobs();

  private:
    /** Run one queued task on the calling thread, if any is pending;
     *  true if one ran. */
    bool runPendingTask();

    template <typename T>
    void
    helpUntilReady(std::future<T> &fut)
    {
        using namespace std::chrono_literals;
        while (fut.wait_for(0s) != std::future_status::ready) {
            // The short timed wait (rather than an unbounded one)
            // covers the race where our dependency enqueues new work
            // after we found the queue empty.
            if (!runPendingTask())
                fut.wait_for(1ms);
        }
    }

    void workerLoop();
    void execTask(std::function<void()> &task);

    unsigned numWorkers;
    std::vector<std::thread> threads;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable cv;
    bool stopping = false;
};

} // namespace mcd

#endif // MCD_COMMON_THREAD_POOL_HH
