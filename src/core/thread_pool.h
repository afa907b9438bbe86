/**
 * @file
 * The one worker pool, and the one way to run work in parallel:
 * forkJoin(), whose slots run on the calling thread plus any idle
 * workers.  The caller runs slots itself and takes back every slot
 * no worker has started, so it never waits behind another caller's
 * work: nested callers (a batch compile or a campaign shard whose
 * compile forks tabu trials) and callers whose workers are all busy
 * still finish, at worst sequentially.
 *
 * ThreadPool::shared() is the process-wide pool every fan-out runs
 * on (batch jobs, campaign workers, tabu trials, simulator blocks
 * and shots): hardware_concurrency() - 1 workers, started on first
 * use and never torn down.  A `jobs`/`workers` setting caps how many
 * threads one forkJoin() may occupy; no caller starts threads of its
 * own, so concurrency never exceeds the hardware threads.  Worker
 * threads do not survive fork(); in a forked child a pool reports no
 * workers and forkJoin() runs every slot on the caller, so nothing
 * waits for a thread that is not there.
 */

#ifndef TQAN_CORE_THREAD_POOL_H
#define TQAN_CORE_THREAD_POOL_H

#include <climits>
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
    /** A pool of exactly `workers` threads (none if `workers <= 0`). */
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The process-wide pool (see the file comment). */
    static ThreadPool &shared();

    /** Worker threads that can run slots in this process: 0 in a
     * child forked after the pool started. */
    int size() const;

    /**
     * Run body(0) .. body(slots - 1), each slot exactly once, on the
     * calling thread and up to min(slots, width) - 1 of the workers;
     * returns when all have finished.  Slots are claimed in index
     * order.  Two slots never share a thread at the same time, so
     * per-slot state needs no lock, and `width <= 1` runs every slot
     * on the caller.  An exception from body is caught, the
     * remaining slots still run, and the lowest failing slot's
     * exception is rethrown here.  Safe to call from any thread,
     * concurrently, and from inside another forkJoin's slot.
     */
    void forkJoin(int slots, const std::function<void(int)> &body,
                  int width = INT_MAX);

  private:
    struct Join;

    void workerLoop();

    unsigned generation_;  ///< fork generation of the workers
    std::mutex mu_;
    std::condition_variable ticketReady_;
    std::condition_variable joined_;  ///< a ticket's worker left
    /** Tickets, each inviting one worker into a forkJoin() call. */
    std::deque<Join *> tickets_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_THREAD_POOL_H
