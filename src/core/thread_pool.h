/**
 * @file
 * The one worker-pool class: a fixed set of threads behind a FIFO
 * queue, used two ways.
 *
 *  - submit() / wait(): fire-and-forget tasks, then a barrier over
 *    everything submitted (BatchCompiler jobs, sim::Engine blocks).
 *  - forkJoin(): one call's slots, run by the calling thread plus any
 *    idle workers.  The caller runs slots itself and takes back every
 *    slot no worker has started, so it never waits behind another
 *    caller's work: nested callers (a BatchCompiler or tqand worker
 *    whose compile forks tabu trials) and callers whose workers are
 *    all busy still finish, at worst sequentially.
 *
 * ThreadPool::shared() is the process-wide pool the tabu trials run
 * on: hardware_concurrency() - 1 workers, started on first use and
 * never torn down.  Worker threads do not survive fork(); in a forked
 * child a pool reports no workers, forkJoin() runs every slot on the
 * caller and submit() runs inline, so nothing waits for a thread that
 * is not there.
 */

#ifndef TQAN_CORE_THREAD_POOL_H
#define TQAN_CORE_THREAD_POOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tqan {
namespace core {

class ThreadPool
{
  public:
    /** `threads` workers; with `threads <= 1` none, and submit()
     * runs each task inline, so single-threaded batches stay exactly
     * sequential. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The process-wide pool (see the file comment). */
    static ThreadPool &shared();

    /** Worker threads that can run tasks in this process: 0 for an
     * inline pool and in a child forked after the pool started. */
    int size() const;

    /** Enqueue one task; never blocks on task completion.  A task
     * must not throw (a worker would call std::terminate). */
    void submit(std::function<void()> task);

    /** Block until every submitted task has run to completion.  Must
     * not be called from one of this pool's own tasks. */
    void wait();

    /**
     * Run body(0) .. body(slots - 1), each slot exactly once, on the
     * calling thread and up to slots - 1 of the workers; returns when
     * all have finished.  Two slots never share a thread at the same
     * time, so per-slot state needs no lock.  An exception from body
     * is caught, the remaining slots still run, and the lowest
     * failing slot's exception is rethrown here.  Safe to call from
     * any thread, concurrently, and from inside a task of this pool.
     */
    void forkJoin(int slots, const std::function<void(int)> &body);

  private:
    struct Join;

    /** A queued task, or a ticket inviting a worker into a forkJoin
     * call (`join` non-null). */
    struct Task
    {
        std::function<void()> fn;
        Join *join = nullptr;
    };

    struct Exact {};
    ThreadPool(int workers, Exact);

    void workerLoop();

    unsigned generation_;  ///< fork generation of the workers
    std::mutex mu_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::condition_variable joined_;  ///< a ticket's worker left
    std::deque<Task> queue_;
    int running_ = 0;  ///< tasks and tickets currently executing
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_THREAD_POOL_H
