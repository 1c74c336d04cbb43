/**
 * @file
 * Fixed-size worker pool with a futures-based submission API.
 *
 * Tasks are executed in FIFO submission order by a fixed set of worker
 * threads; submit() returns a std::future carrying the task's result
 * (or its exception). With a single worker the pool degenerates to a
 * strict serial queue, which the sweep engine uses to reproduce the
 * historical serial evaluation order exactly.
 *
 * forEachIndex() is the nested fan-out: a task already running on a
 * pool worker spreads independent sub-work (one recorded trace's
 * replays) over the same pool, taking part in it itself, so a
 * straggler task no longer runs its sub-work serially.
 */

#ifndef LVA_UTIL_THREAD_POOL_HH
#define LVA_UTIL_THREAD_POOL_HH

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

#include "util/types.hh"

namespace lva {

/**
 * A fixed pool of worker threads draining one FIFO task queue.
 *
 * Lifecycle: workers start in the constructor and are joined in the
 * destructor, which first waits for every queued task to finish.
 * submit() is thread-safe; submitting after shutdown() throws.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultJobs() */
    explicit ThreadPool(u32 threads = 0);

    /** Drains the queue, then stops and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    u32 size() const { return static_cast<u32>(workers_.size()); }

    /** Tasks submitted over the pool's lifetime. */
    u64 submitted() const;

    /**
     * Enqueue @p fn for execution; the returned future yields its
     * result or rethrows its exception.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        // packaged_task is move-only but std::function requires
        // copyability, so the task lives behind a shared_ptr.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        enqueue([task]() { (*task)(); });
        return result;
    }

    /** Stop accepting work, finish queued tasks and join workers. */
    void shutdown();

    /**
     * Call @p fn(i) once for every i in [0, n); return when all calls
     * have finished.
     *
     * Outside a pool worker (the LVA_JOBS=1 serial path, plain
     * callers) this is the plain loop in index order. On a pool
     * worker it enqueues up to min(n - 1, size()) helper tasks at the
     * back of that worker's pool; the caller and the helpers claim
     * indices from one shared counter. The caller waits only for
     * indices already claimed, never for a helper that has not
     * started, so nesting cannot deadlock at any pool size. Helpers
     * queue behind work submitted earlier, and a stopping pool gets
     * no helpers at all: the caller then runs every index itself.
     *
     * Helpers inherit the caller's ScopedFailureIsolation. After the
     * first exception no further index is claimed; once the claimed
     * ones finish, that exception is rethrown here. @p fn must be
     * safe to call concurrently for distinct indices.
     */
    static void forEachIndex(u64 n, const std::function<void(u64)> &fn);

    /**
     * Parallelism requested via the environment: LVA_JOBS if set to a
     * sane value, otherwise std::thread::hardware_concurrency().
     * LVA_JOBS=1 selects the serial path.
     */
    static u32 defaultJobs();

  private:
    void enqueue(std::function<void()> task);
    /** enqueue() that returns false instead of throwing once stopping. */
    bool tryEnqueue(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    u64 submitted_ = 0;
    bool stopping_ = false;
};

} // namespace lva

#endif // LVA_UTIL_THREAD_POOL_HH
