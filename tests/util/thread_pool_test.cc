#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hh"

namespace rest::util
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadStillWorks)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, EachTaskRunsExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(200);
    for (auto &h : hits)
        h = 0;
    for (std::size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 20 * (batch + 1));
    }
}

TEST(ThreadPool, WaitWithNothingSubmittedReturns)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, SubmitFromWorkerThread)
{
    // The pool must accept nested submission (a task spawning
    // follow-up work) without deadlocking.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            pool.submit([&count] { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 8);
}

// ---------------------------------------------------------------------
// Fault tolerance: throwing tasks (the historical deadlock: a task
// exception skipped the pending_ decrement and wait() hung forever).
// ---------------------------------------------------------------------

TEST(ThreadPool, ThrowingTaskDoesNotDeadlockWait)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&count, i] {
            ++count;
            if (i == 17)
                throw std::runtime_error("task 17 failed");
        });
    }
    // Every task (including the thrower) must complete, and wait()
    // must return — by throwing — rather than hang.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitRethrowsTheTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    try {
        pool.wait();
        FAIL() << "wait() should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "boom");
    }
}

TEST(ThreadPool, PoolIsReusableAfterAFailedBatch)
{
    ThreadPool pool(4);
    pool.submit([] { throw std::runtime_error("first batch"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The failure record is cleared; a clean batch runs normally.
    std::atomic<int> count{0};
    for (int i = 0; i < 30; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 30);
    EXPECT_EQ(pool.taskFailures(), 0u);
}

TEST(ThreadPool, AllFailuresAreCountedFirstIsRethrown)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&count, i] {
            ++count;
            if (i % 4 == 0)
                throw std::runtime_error("fail " + std::to_string(i));
        });
    }
    // Let the batch drain without consuming the failures yet: poll
    // the failure counter until all 20 tasks ran.
    while (count.load() < 20) {}
    // wait() rethrows one and clears the rest.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(pool.taskFailures(), 0u);
}

TEST(ThreadPool, ThrowingTasksMixedWithNestedSubmission)
{
    // Stress: workers that throw while other workers submit nested
    // work. The completion accounting must survive both at once.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&pool, &count, i] {
            if (i % 2 == 0) {
                pool.submit([&count] { ++count; });
            }
            if (i % 8 == 3)
                throw std::runtime_error("mixed failure");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 32);

    // And a clean follow-up batch still works.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 33);
}

TEST(ThreadPool, NonExceptionThrowIsCaptured)
{
    ThreadPool pool(2);
    pool.submit([] { throw 42; });
    EXPECT_THROW(pool.wait(), int);
}

} // namespace rest::util
