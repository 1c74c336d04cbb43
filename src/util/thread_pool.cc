#include "util/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "util/env_knob.hh"
#include "util/logging.hh"

namespace lva {

namespace {

// The pool whose worker is running on this thread; null elsewhere.
// Lets forEachIndex() find the pool of the task calling it (mutable
// state is legal in src/util/).
thread_local ThreadPool *current_pool = nullptr;

/**
 * One forEachIndex() call's shared state. Claims, completions and the
 * first error share one mutex, so "no claim after a failure" and "no
 * claim once the caller may return" are each a single locked step.
 * Helpers hold it by shared_ptr: one that starts after the caller
 * returned finds nothing to claim and never touches @c fn.
 */
struct Fanout
{
    const std::function<void(u64)> &fn;
    const u64 n;
    const bool isolate; ///< the caller ran under ScopedFailureIsolation

    std::mutex mutex;
    std::condition_variable idle;
    u64 next = 0;    ///< next unclaimed index
    u64 running = 0; ///< claimed indices not yet finished
    bool closed = false; ///< no more claims: all taken, or a failure
    std::exception_ptr error;

    Fanout(const std::function<void(u64)> &f, u64 count, bool iso)
        : fn(f), n(count), isolate(iso)
    {
    }

    /** Claim and run indices until none is left or one has failed. */
    void
    drain()
    {
        for (;;) {
            u64 i = 0;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (closed)
                    return;
                i = next++;
                if (next == n)
                    closed = true;
                ++running;
            }
            std::exception_ptr err;
            try {
                if (isolate) {
                    ScopedFailureIsolation scope;
                    fn(i);
                } else {
                    fn(i);
                }
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (err && !error) {
                error = err;
                closed = true;
            }
            if (--running == 0 && closed)
                idle.notify_all();
        }
    }
};

} // namespace

void
ThreadPool::forEachIndex(u64 n, const std::function<void(u64)> &fn)
{
    ThreadPool *const pool = current_pool;
    if (pool == nullptr || n < 2) {
        for (u64 i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto fanout =
        std::make_shared<Fanout>(fn, n, failureIsolationActive());
    const u64 helpers = std::min<u64>(n - 1, pool->size());
    for (u64 h = 0; h < helpers; ++h)
        if (!pool->tryEnqueue([fanout] { fanout->drain(); }))
            break; // stopping: the caller runs the rest itself

    fanout->drain();
    std::unique_lock<std::mutex> lock(fanout->mutex);
    fanout->idle.wait(lock, [&] { return fanout->running == 0; });
    if (fanout->error)
        std::rethrow_exception(fanout->error);
}

u32
ThreadPool::defaultJobs()
{
    // Strict decimal parse (util/env_knob.hh): "4abc" and "0x2" are
    // configuration mistakes, not 4 and 0 — they warn and fall back
    // to the hardware default.
    if (const u64 v = envKnobU64("LVA_JOBS", 0, 1, 256))
        return static_cast<u32>(v);
    const u32 hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(u32 threads)
{
    const u32 n = threads ? threads : defaultJobs();
    workers_.reserve(n);
    for (u32 i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

u64
ThreadPool::submitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (!tryEnqueue(std::move(task)))
        throw std::runtime_error("ThreadPool::submit after shutdown");
}

bool
ThreadPool::tryEnqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        queue_.push_back(std::move(task));
        ++submitted_;
    }
    wake_.notify_one();
    return true;
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    current_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            // Drain the queue even when stopping: shutdown() promises
            // every submitted future eventually becomes ready.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task captures exceptions in the future
    }
}

} // namespace lva
