#include "common/thread_pool.hh"

#include <atomic>
#include <cstdlib>

namespace hirise {

namespace {

/** The pool the calling thread works for, if any. */
thread_local ThreadPool *t_pool = nullptr;

std::atomic<unsigned> g_globalThreads{0};

unsigned
defaultThreads()
{
    if (unsigned req = g_globalThreads.load())
        return req;
    if (const char *env = std::getenv("HIRISE_THREADS")) {
        long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned n = threads ? threads : defaultThreads();
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
    // A thread outside the pool may have submitted after the last
    // worker left; run those tasks here so every future is satisfied.
    while (tryRunOne()) {}
}

std::uint64_t
ThreadPool::pendingTasks() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

bool
ThreadPool::onWorkerThread() const
{
    return t_pool == this;
}

void
ThreadPool::push(Task t)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(t));
    }
    cv_.notify_one();
}

bool
ThreadPool::tryRunOne()
{
    Task t;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (queue_.empty())
            return false;
        t = std::move(queue_.front());
        queue_.pop_front();
    }
    t();
    return true;
}

void
ThreadPool::workerLoop()
{
    t_pool = this;
    for (;;) {
        Task t;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopped and drained
            t = std::move(queue_.front());
            queue_.pop_front();
        }
        t();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    g_globalThreads.store(threads);
}

} // namespace hirise
