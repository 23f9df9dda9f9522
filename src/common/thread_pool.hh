/**
 * @file
 * Persistent thread pool for campaign-scale experiment execution. One
 * pool outlives thousands of simulation tasks, so thread start-up is
 * paid once per process instead of once per sweep.
 *
 * Design: one mutex-guarded FIFO and one condition variable. Every
 * submit, from a worker or from outside, appends to the queue; workers
 * and helping waiters pop the oldest task, and idle workers sleep on
 * the condition variable. The tasks are whole simulations with no
 * ordering between them, so one queue serves them.
 *  - futures + exception propagation: submit() returns a real
 *    std::future; an exception thrown by the task is rethrown by
 *    future::get() on the waiter's thread.
 *  - helping waits: waitHelping() runs queued tasks while blocked on
 *    a future, so nested submits cannot deadlock even on a 1-thread
 *    pool.
 *  - graceful shutdown: the destructor lets the workers empty the
 *    queue, joins them, and drains any stragglers on the destructing
 *    thread, so every submitted task runs exactly once.
 *
 * Determinism: the pool never reorders *results* — callers index
 * output slots by task id — so simulation campaigns are bit-identical
 * for any thread count or interleaving (see tests/campaign_test).
 */

#ifndef HIRISE_COMMON_THREAD_POOL_HH
#define HIRISE_COMMON_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hirise {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param threads worker count; 0 = HIRISE_THREADS env or
     *  hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue @p fn; the returned future carries its result or
     *  exception. Safe to call from worker threads. */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> fut = task->get_future();
        push([task]() { (*task)(); });
        return fut;
    }

    /** Dequeue and run the oldest queued task on the calling thread,
     *  if any. Lets waiters (and tests) make progress without a
     *  worker. */
    bool tryRunOne();

    /** Tasks submitted but not yet started. */
    std::uint64_t pendingTasks() const;

    /** Is the calling thread one of this pool's workers? */
    bool onWorkerThread() const;

    /** The process-wide pool (sized once on first use; see
     *  setGlobalThreads / HIRISE_THREADS). */
    static ThreadPool &global();

    /** Request a size for the global pool. Takes effect only if
     *  called before the first global() use (e.g. from --threads
     *  flag parsing at program start). */
    static void setGlobalThreads(unsigned threads);

  private:
    void push(Task t);
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Task> queue_; //!< guarded by mu_
    bool stop_ = false;      //!< guarded by mu_
    std::vector<std::thread> workers_;
};

/**
 * Block on @p fut, running other queued pool tasks while waiting.
 * Required instead of fut.get() whenever the waiter may itself be a
 * pool task (nested parallelism): a plain get() from the last worker
 * would deadlock.
 */
template <typename R>
R
waitHelping(ThreadPool &pool, std::future<R> &fut)
{
    using namespace std::chrono_literals;
    while (fut.wait_for(0s) != std::future_status::ready) {
        if (!pool.tryRunOne())
            fut.wait_for(200us);
    }
    return fut.get();
}

} // namespace hirise

#endif // HIRISE_COMMON_THREAD_POOL_HH
