#include "thread_pool.hh"

#include <cstdlib>

#include "log.hh"

namespace mcd {

/**
 * Run one dequeued task. submit() wraps every callable in a
 * packaged_task, so a throwing task delivers its exception to the
 * waiter through the future and nothing should ever escape here — but
 * if something does (a future-proofing guard: packaged_task invocation
 * itself can throw future_error on misuse), an escape would
 * std::terminate the worker thread and deadlock every pending wait().
 * Swallow-and-warn is the only safe disposition at this boundary.
 */
void
ThreadPool::execTask(std::function<void()> &task)
{
    try {
        task();
    } catch (const std::exception &e) {
        warn(std::string("thread pool: task escaped its "
                         "packaged_task wrapper: ") + e.what());
    } catch (...) {
        warn("thread pool: task escaped its packaged_task wrapper "
             "with a non-std exception");
    }
}

ThreadPool::ThreadPool(unsigned workers)
    : numWorkers(workers)
{
    threads.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mutex);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

bool
ThreadPool::runPendingTask()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lk(mutex);
        if (queue.empty())
            return false;
        task = std::move(queue.front());
        queue.pop_front();
    }
    execTask(task);
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mutex);
            cv.wait(lk, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;     // stopping, queue drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        execTask(task);
    }
}

unsigned
ThreadPool::hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

} // namespace mcd
