/**
 * @file
 * Tests for the fixed-size worker pool behind the sweep engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace lva {
namespace {

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i, &order] {
            order.push_back(i); // serialized by the single worker
            return i;
        }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[i].get(), i);
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, FuturesCarryResults)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
    EXPECT_EQ(pool.submitted(), 100u);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    auto good = pool.submit([] { return 7; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that ran the throwing task keeps serving.
    EXPECT_EQ(good.get(), 7);
    EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, RunsTasksConcurrently)
{
    // Two tasks that each wait for the other to have started can
    // only finish if two workers run them simultaneously.
    ThreadPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    int started = 0;
    auto rendezvous = [&] {
        std::unique_lock<std::mutex> lock(m);
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started == 2; });
        return true;
    };
    auto a = pool.submit(rendezvous);
    auto b = pool.submit(rendezvous);
    EXPECT_TRUE(a.get());
    EXPECT_TRUE(b.get());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&done] { ++done; });
        // No future waits: the destructor must finish the queue.
    }
    EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownThrows)
{
    ThreadPool pool(2);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
    pool.shutdown(); // idempotent
}

TEST(ThreadPool, SizeMatchesRequestedWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultJobsHonorsEnvironment)
{
    ::setenv("LVA_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    ::setenv("LVA_JOBS", "garbage", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u); // falls back to hw
    ::unsetenv("LVA_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, DefaultJobsParsesStrictly)
{
    // Regression: strtol's permissive prefix parse used to accept
    // "200abc" as 200 and "0x64" as 0 — trailing characters must
    // reject the whole value and fall back to hardware concurrency.
    // (The distinctive magnitudes cannot collide with a real core
    // count, so inequality proves the value was rejected.)
    ::setenv("LVA_JOBS", "200abc", 1);
    EXPECT_NE(ThreadPool::defaultJobs(), 200u);
    ::setenv("LVA_JOBS", "0x64", 1);
    EXPECT_NE(ThreadPool::defaultJobs(), 100u);
    ::setenv("LVA_JOBS", "7.5", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);

    // Out-of-range and non-positive values are rejected too.
    ::setenv("LVA_JOBS", "0", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    ::setenv("LVA_JOBS", "-4", 1);
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
    ::setenv("LVA_JOBS", "300", 1);
    EXPECT_NE(ThreadPool::defaultJobs(), 300u);

    // Plain decimal (leading zeros included) still parses.
    ::setenv("LVA_JOBS", "042", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 42u);
    ::setenv("LVA_JOBS", "256", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 256u);
    ::unsetenv("LVA_JOBS");
}


// ---- forEachIndex: the nested fan-out ---------------------------------

// How long a test waits for work it expects on another worker before
// it gives up and fails, so a fan-out that sends nothing to helpers
// shows as a failure, not a hang.
constexpr std::chrono::seconds kHelperDeadline{10};

TEST(ForEachIndex, OutsideAPoolIsThePlainSerialLoop)
{
    // No pool on this thread: indices run here, in order.
    const std::thread::id self = std::this_thread::get_id();
    std::vector<u64> order;
    ThreadPool::forEachIndex(5, [&](u64 i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<u64>{0, 1, 2, 3, 4}));
}

TEST(ForEachIndex, NestsInsideASingleWorkerPool)
{
    // The only worker is busy running the caller, so the helper it
    // enqueues cannot start until the caller returns: the caller must
    // run every index itself instead of waiting for the helper.
    ThreadPool pool(1);
    std::vector<u64> order;
    auto done = pool.submit([&] {
        ThreadPool::forEachIndex(8, [&](u64 i) { order.push_back(i); });
        return true;
    });
    EXPECT_TRUE(done.get());
    EXPECT_EQ(order, (std::vector<u64>{0, 1, 2, 3, 4, 5, 6, 7}));
    pool.shutdown();
    EXPECT_EQ(pool.submitted(), 2u); // the outer task plus one helper
}

TEST(ForEachIndex, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    const u64 size = pool.size();
    for (u64 n : {u64(0), u64(1), u64(2), size, 3 * size + 1}) {
        const u64 before = pool.submitted();
        std::vector<std::atomic<int>> hits(n);
        auto done = pool.submit([&] {
            ThreadPool::forEachIndex(n, [&](u64 i) { ++hits[i]; });
            return true;
        });
        EXPECT_TRUE(done.get());
        for (u64 i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
        // min(n - 1, size) helpers ride along; none for n < 2.
        const u64 helpers = pool.submitted() - before - 1;
        EXPECT_EQ(helpers, n > 1 ? std::min(n - 1, size) : 0)
            << "n=" << n;
    }
}

TEST(ForEachIndex, ReallyRunsOnSeveralWorkers)
{
    // Two indices that each wait for the other to have started can
    // only finish if a helper runs one while the caller runs the
    // other.
    ThreadPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    int started = 0;
    std::atomic<bool> timed_out{false};
    auto done = pool.submit([&] {
        ThreadPool::forEachIndex(2, [&](u64) {
            std::unique_lock<std::mutex> lock(m);
            ++started;
            cv.notify_all();
            if (!cv.wait_for(lock, kHelperDeadline,
                             [&] { return started == 2; }))
                timed_out = true;
        });
        return true;
    });
    EXPECT_TRUE(done.get());
    EXPECT_FALSE(timed_out.load())
        << "the second index did not start on another worker within "
        << kHelperDeadline.count() << " s";
}

TEST(ForEachIndex, FirstExceptionReachesTheCallerAndStopsClaims)
{
    // With one worker the caller runs the indices in order, so
    // exactly the indices up to the failing one start.
    ThreadPool pool(1);
    std::vector<u64> started;
    auto done = pool.submit([&] {
        ThreadPool::forEachIndex(10, [&](u64 i) {
            started.push_back(i);
            if (i == 3)
                throw std::runtime_error("index 3 failed");
        });
    });
    try {
        done.get();
        FAIL() << "the exception did not reach the caller";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 3 failed");
    }
    EXPECT_EQ(started, (std::vector<u64>{0, 1, 2, 3}));
}

TEST(ForEachIndex, CallerWaitsForClaimedIndicesBeforeRethrowing)
{
    // Concurrently: the failure is rethrown only after every index
    // that did start has finished, and far fewer than n start.
    ThreadPool pool(4);
    constexpr u64 n = 1000;
    std::atomic<int> running{0};
    std::atomic<u64> started{0};
    auto done = pool.submit([&] {
        try {
            ThreadPool::forEachIndex(n, [&](u64 i) {
                ++running;
                ++started;
                if (i == 5) {
                    --running;
                    throw std::runtime_error("boom");
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                --running;
            });
        } catch (const std::runtime_error &) {
            return running.load();
        }
        return -1;
    });
    EXPECT_EQ(done.get(), 0);
    EXPECT_LT(started.load(), n);
}

TEST(ForEachIndex, IsolationIsCarriedIntoHelpers)
{
    // A tripped lva_assert in a helper must surface as IsolatedError
    // at the isolated caller, not abort the process. The caller
    // blocks its own index until the failing one has run elsewhere.
    ThreadPool pool(2);
    std::atomic<bool> helper_done{false};
    std::atomic<bool> timed_out{false};
    auto done = pool.submit([&] {
        const std::thread::id caller = std::this_thread::get_id();
        ScopedFailureIsolation isolate;
        try {
            ThreadPool::forEachIndex(2, [&](u64 i) {
                if (std::this_thread::get_id() == caller) {
                    const auto deadline =
                        std::chrono::steady_clock::now() + kHelperDeadline;
                    while (!helper_done.load() && !timed_out.load()) {
                        if (std::chrono::steady_clock::now() > deadline)
                            timed_out = true;
                        std::this_thread::yield();
                    }
                    return;
                }
                helper_done = true;
                lva_assert(i > 99, "index %llu",
                           static_cast<unsigned long long>(i));
            });
        } catch (const IsolatedError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    });
    const std::string what = done.get();
    ASSERT_FALSE(timed_out.load())
        << "no helper ran an index within " << kHelperDeadline.count()
        << " s";
    EXPECT_NE(what.find("assertion 'i > 99' failed"), std::string::npos)
        << what;
}

TEST(ForEachIndex, RunsInlineWhenThePoolIsStopping)
{
    // A task still running while the pool shuts down (for example one
    // whose future a deadline abandoned) must not fail because it
    // fans out: no helper can be enqueued, so the caller runs all.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    std::atomic<int> hits{0};
    auto straggler = pool.submit([&] {
        while (!release.load())
            std::this_thread::yield();
        ThreadPool::forEachIndex(5, [&](u64) { ++hits; });
        return true;
    });
    std::thread stopper([&] { pool.shutdown(); });
    // shutdown() has set the stopping flag once submit() throws.
    const auto deadline = std::chrono::steady_clock::now() + kHelperDeadline;
    bool stopping = false;
    while (!stopping && std::chrono::steady_clock::now() < deadline) {
        try {
            pool.submit([] {});
        } catch (const std::runtime_error &) {
            stopping = true;
        }
        std::this_thread::yield();
    }
    EXPECT_TRUE(stopping) << "shutdown() did not stop submissions within "
                          << kHelperDeadline.count() << " s";
    const u64 before = pool.submitted();
    release = true;
    bool ok = false;
    EXPECT_NO_THROW(ok = straggler.get());
    stopper.join();
    EXPECT_TRUE(ok);
    EXPECT_EQ(hits.load(), 5);
    EXPECT_EQ(pool.submitted(), before); // no helper was enqueued
}

} // namespace
} // namespace lva
