/**
 * @file
 * The worker pool's forkJoin(): its caller runs slots itself, takes
 * back every slot no worker has started, rethrows a slot's exception
 * once the rest are done, caps its threads at `width`, and in a
 * forked child runs every slot alone.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

using namespace tqan;
using core::ThreadPool;

TEST(ThreadPool, SharedPoolLeavesOneHardwareThreadToTheCaller)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    EXPECT_EQ(ThreadPool::shared().size(), std::max(0, hw - 1));
    EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, ForkJoinRunsEverySlotExactlyOnce)
{
    for (int slots : {1, 2, 5, 17}) {
        std::vector<std::atomic<int>> runs(slots);
        ThreadPool::shared().forkJoin(slots,
                                      [&runs](int s) { ++runs[s]; });
        for (int s = 0; s < slots; ++s)
            EXPECT_EQ(runs[s].load(), 1) << "slot " << s << " of "
                                         << slots;
    }
    ThreadPool::shared().forkJoin(0, [](int) { FAIL(); });
}

TEST(ThreadPool, ForkJoinCallerTakesBackSlotsNoWorkerStarted)
{
    // A forkJoin from a second thread holds both workers (each of its
    // three slots blocks, so every thread inside runs exactly one),
    // so no worker can start a slot of the call below: the caller
    // must run all of them and return without waiting for the
    // workers.
    ThreadPool pool(2);
    std::atomic<int> holding{0};
    std::atomic<bool> release{false};
    std::thread holder([&]() {
        pool.forkJoin(3, [&](int) {
            ++holding;
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    });
    while (holding.load() < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::thread::id> ranOn(4);
    pool.forkJoin(4, [&ranOn](int s) {
        ranOn[s] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ranOn)
        EXPECT_EQ(id, std::this_thread::get_id());

    release = true;
    holder.join();
}

TEST(ThreadPool, ForkJoinWidthCapsTheThreads)
{
    // `width` bounds the threads inside one call, the caller
    // included; width 1 (and below) runs every slot on the caller.
    ThreadPool pool(3);
    for (int width : {-1, 0, 1, 2, 3}) {
        std::mutex mu;
        std::set<std::thread::id> threads;
        std::atomic<int> inside{0}, most{0};
        pool.forkJoin(
            12,
            [&](int) {
                const int now = ++inside;
                for (int m = most.load(); now > m;)
                    most.compare_exchange_weak(m, now);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                --inside;
                std::lock_guard<std::mutex> lock(mu);
                threads.insert(std::this_thread::get_id());
            },
            width);
        SCOPED_TRACE(width);
        EXPECT_LE(most.load(), std::max(1, width));
        EXPECT_LE(static_cast<int>(threads.size()), std::max(1, width));
        if (width <= 1) {
            EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
        }
    }
}

TEST(ThreadPool, ForkedChildRunsEverySlotOnItsOwnThread)
{
    // Pool threads do not survive fork(): in a child forked after
    // the shared pool started, the pool reports no workers and a
    // forkJoin runs every slot on the child's calling thread instead
    // of waiting for workers that are gone.
    ThreadPool &pool = ThreadPool::shared();
    std::atomic<int> warm{0};
    pool.forkJoin(4, [&warm](int) { ++warm; });
    ASSERT_EQ(warm.load(), 4);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int code = 0;
        if (ThreadPool::shared().size() != 0)
            code = 1;
        const std::thread::id self = std::this_thread::get_id();
        std::vector<std::thread::id> ranOn(4);
        ThreadPool::shared().forkJoin(4, [&ranOn](int s) {
            ranOn[s] = std::this_thread::get_id();
        });
        for (const std::thread::id &id : ranOn)
            if (id != self)
                code = 2;
        _exit(code);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int status = 0;
    pid_t done = 0;
    while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (done == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        FAIL() << "forked child still running after 60 s";
    }
    ASSERT_EQ(done, pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: the child's pool reports workers; 2: a slot ran on "
           "another thread";
}

TEST(ThreadPool, ForkJoinRethrowsOnceTheOtherSlotsFinish)
{
    // A failing slot (a tabu trial that throws) surfaces on the
    // caller, but only after every other slot has run to the end;
    // with several failures the lowest slot's exception wins.
    ThreadPool &pool = ThreadPool::shared();
    const int slots = 4;
    std::vector<std::atomic<int>> finished(slots);
    auto body = [&finished](int s) {
        if (s == 1 || s == 3)
            throw std::runtime_error("slot " + std::to_string(s));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++finished[s];
    };
    try {
        pool.forkJoin(slots, body);
        FAIL() << "forkJoin swallowed the slot's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "slot 1");
    }
    EXPECT_EQ(finished[0].load(), 1);
    EXPECT_EQ(finished[2].load(), 1);

    // The pool stays usable.
    std::atomic<int> runs{0};
    pool.forkJoin(slots, [&runs](int) { ++runs; });
    EXPECT_EQ(runs.load(), slots);
}

TEST(ThreadPool, NestedForkJoinsFinish)
{
    // Every outer slot forks again on the same pool, so its workers
    // are busy with outer slots while inner calls queue tickets no
    // one may pick up; the inner callers run their own slots.
    ThreadPool &pool = ThreadPool::shared();
    const int outer = pool.size() + 2;
    std::atomic<int> inner{0};
    pool.forkJoin(outer, [&](int) {
        pool.forkJoin(3, [&inner](int) { ++inner; });
    });
    EXPECT_EQ(inner.load(), outer * 3);
}
