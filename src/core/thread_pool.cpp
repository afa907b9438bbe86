#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include <pthread.h>

namespace tqan {
namespace core {

namespace {

/** How many fork()s lie between the process that loaded the library
 * and this one.  A pool serves its queue only in the generation that
 * started its threads, and the shared pool starts threads only in
 * generation 0: a forked child that first asks for it gets one
 * without workers, like a child forked after it started (and
 * starting threads after a multi-threaded fork is unsafe).  An
 * atomic load, unlike getpid(), costs no system call. */
std::atomic<unsigned> forkGeneration{0};
[[maybe_unused]] const int atforkRegistered = pthread_atfork(
    nullptr, nullptr, []() { forkGeneration.fetch_add(1); });

} // namespace

/** One forkJoin() call, on the caller's stack.  Slots are claimed
 * through `next`, so each runs exactly once, on whichever thread
 * claims it first. */
struct ThreadPool::Join
{
    Join(int n, const std::function<void(int)> &fn)
        : slots(n), body(fn), errors(n)
    {
    }

    /** Claim and run slots until none is left. */
    void runSlots()
    {
        for (int s; (s = next.fetch_add(1)) < slots;) {
            try {
                body(s);
            } catch (...) {
                errors[s] = std::current_exception();
            }
        }
    }

    const int slots;
    const std::function<void(int)> &body;
    std::atomic<int> next{0};
    int workers = 0;  ///< workers inside runSlots(); guarded by mu_
    std::vector<std::exception_ptr> errors;  ///< one per slot
};

ThreadPool::ThreadPool(int workers)
    : generation_(forkGeneration.load())
{
    workers_.reserve(std::max(0, workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    ticketReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool &
ThreadPool::shared()
{
    // Never destroyed: at exit a forked child would join workers it
    // does not have, and idle workers cost nothing.
    static ThreadPool *pool = new ThreadPool(
        forkGeneration.load() == 0
            ? std::max(0, static_cast<int>(
                              std::thread::hardware_concurrency()) -
                              1)
            : 0);
    return *pool;
}

int
ThreadPool::size() const
{
    return generation_ == forkGeneration.load()
               ? static_cast<int>(workers_.size())
               : 0;
}

void
ThreadPool::forkJoin(int slots, const std::function<void(int)> &body,
                     int width)
{
    if (slots <= 0)
        return;
    Join join(slots, body);
    const int tickets = std::min({slots, width, size() + 1}) - 1;
    if (tickets > 0) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            tickets_.insert(tickets_.end(), tickets, &join);
        }
        for (int i = 0; i < tickets; ++i)
            ticketReady_.notify_one();
    }
    join.runSlots();
    if (tickets > 0) {
        // Every slot is claimed by now, so a ticket no worker has
        // popped invites no one; withdraw it and wait only for the
        // workers already inside.
        std::unique_lock<std::mutex> lock(mu_);
        tickets_.erase(
            std::remove(tickets_.begin(), tickets_.end(), &join),
            tickets_.end());
        joined_.wait(lock, [&join]() { return join.workers == 0; });
    }
    for (const std::exception_ptr &e : join.errors)
        if (e)
            std::rethrow_exception(e);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        ticketReady_.wait(lock,
                          [this]() { return stop_ || !tickets_.empty(); });
        if (stop_)
            return;
        Join *join = tickets_.front();
        tickets_.pop_front();
        ++join->workers;
        lock.unlock();
        join->runSlots();
        lock.lock();
        // The caller may return as soon as it sees zero workers, so
        // the join is not touched after the decrement.
        if (--join->workers == 0)
            joined_.notify_all();
    }
}

} // namespace core
} // namespace tqan
