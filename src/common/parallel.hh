/**
 * @file
 * Parallel map over the persistent campaign pool (see thread_pool.hh):
 * one task per item, helping execute queued tasks while waiting.
 * Results land in index-order slots, so output is bit-identical for
 * any thread count or execution order.
 */

#ifndef HIRISE_COMMON_PARALLEL_HH
#define HIRISE_COMMON_PARALLEL_HH

#include <exception>
#include <future>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hh"

namespace hirise {

/**
 * Apply @p fn to every element of @p items through @p pool (null =
 * the global pool) and return the results in order. @p fn must be
 * safe to call concurrently on distinct items; exceptions thrown by
 * any invocation are rethrown (the earliest item's first) after every
 * task has finished. Pass @p max_threads = 1 to force a serial
 * in-place loop (identical results, no pool traffic).
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn fn,
            unsigned max_threads = 0, ThreadPool *pool = nullptr)
    -> std::vector<std::invoke_result_t<Fn, const T &>>
{
    using R = std::invoke_result_t<Fn, const T &>;
    std::vector<R> out(items.size());
    if (items.empty())
        return out;

    if (max_threads == 1 || items.size() == 1) {
        for (std::size_t i = 0; i < items.size(); ++i)
            out[i] = fn(items[i]);
        return out;
    }

    // Each task stores its own exception in a caller-owned slot
    // instead of in its future, so the worker is done with the
    // exception object before the caller can see the task finish.
    // (Through the future, the worker's shared state could drop the
    // last reference after the caller read the exception; TSan
    // reports that as a race, as libstdc++'s exception refcounts are
    // invisible to it.)
    ThreadPool &p = pool ? *pool : ThreadPool::global();
    std::vector<std::exception_ptr> errors(items.size());
    std::vector<std::future<void>> futs;
    futs.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        futs.push_back(p.submit([&items, &out, &errors, &fn, i] {
            try {
                out[i] = fn(items[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }));
    }

    // Wait on every future (helping, so nested parallelMap calls on
    // an exhausted pool still make progress), then surface the
    // lowest-index failure.
    for (auto &f : futs)
        waitHelping(p, f);
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
    return out;
}

} // namespace hirise

#endif // HIRISE_COMMON_PARALLEL_HH
