/**
 * @file
 * A small thread pool for embarrassingly-parallel simulator sweeps.
 *
 * Workers take tasks from one shared FIFO queue. submit() may be
 * called from any thread (including from inside a running task),
 * wait() blocks until every submitted task has finished, and
 * destruction joins the workers.
 *
 * Task execution order is unspecified — callers that need deterministic
 * output must make each task pure and aggregate results by submission
 * index (see sim::SweepRunner).
 *
 * Fault tolerance: a task that throws does not take the pool (or the
 * process) down. The exception is captured into an std::exception_ptr
 * slot, completion is still accounted (pending_ is always
 * decremented), and the remaining tasks keep running. wait() surfaces
 * the first captured failure by rethrowing it once every task has
 * finished; the recorded failures are cleared so the pool stays
 * usable for the next batch. Callers that must see *every* failure
 * (not just the first) should catch inside their tasks, as
 * sim::SweepRunner does.
 */

#ifndef REST_UTIL_THREAD_POOL_HH
#define REST_UTIL_THREAD_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace rest::util
{

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 is clamped to 1. With one
     *        worker the pool still runs tasks on that worker thread,
     *        preserving submit()/wait() semantics.
     */
    explicit ThreadPool(unsigned num_threads)
    {
        unsigned n = std::max(1u, num_threads);
        workers_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::unique_lock lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    unsigned numThreads() const { return unsigned(workers_.size()); }

    /** Enqueue one task at the back of the queue. */
    void
    submit(std::function<void()> task)
    {
        {
            std::unique_lock lock(mutex_);
            rest_assert(!stopping_, "submit() on a stopping pool");
            ++pending_;
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
    }

    /**
     * Block until every task submitted so far has completed. If any
     * task threw, the first captured exception is rethrown here (after
     * all tasks finished) and the failure record is cleared, so the
     * pool remains usable. Additional failures from the same batch are
     * dropped; their count is reported via taskFailures() before the
     * rethrow clears it.
     */
    void
    wait()
    {
        std::exception_ptr first;
        {
            std::unique_lock lock(mutex_);
            done_cv_.wait(lock, [this] { return pending_ == 0; });
            if (!failures_.empty()) {
                first = failures_.front();
                failures_.clear();
            }
        }
        if (first)
            std::rethrow_exception(first);
    }

    /** Number of failed tasks recorded since the last wait() rethrow. */
    std::size_t
    taskFailures() const
    {
        std::unique_lock lock(mutex_);
        return failures_.size();
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock lock(mutex_);
                cv_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
                if (queue_.empty())
                    return; // stopping, and nothing left to run
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            std::exception_ptr failure;
            try {
                task();
            } catch (...) {
                // Never let a task exception escape the worker thread
                // (that would std::terminate the process) or skip the
                // completion accounting below (that would hang wait()
                // on the leaked pending_ count forever).
                failure = std::current_exception();
            }
            {
                std::unique_lock lock(mutex_);
                if (failure)
                    failures_.push_back(std::move(failure));
                if (--pending_ == 0)
                    done_cv_.notify_all();
            }
        }
    }

    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::vector<std::exception_ptr> failures_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::size_t pending_ = 0;
    bool stopping_ = false;
};

} // namespace rest::util

#endif // REST_UTIL_THREAD_POOL_HH
