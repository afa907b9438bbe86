/**
 * @file
 * The worker pool: submit()/wait() batches, and forkJoin(), whose
 * caller runs slots itself, takes back every slot no worker has
 * started, and rethrows a slot's exception once the rest are done.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

using namespace tqan;
using core::ThreadPool;

TEST(ThreadPool, RunsEveryTaskAcrossWaitCycles)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count]() { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 50 * (round + 1));
    }
}

TEST(ThreadPool, SingleThreadedRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0);  // no workers: submit() runs inline
    int count = 0;
    pool.submit([&count]() { ++count; });
    EXPECT_EQ(count, 1);
    pool.wait();
}

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
    // Both workers are held by submitted tasks, so no worker can
    // start a slot: the caller must run all of them and return
    // without waiting for the workers.
    ThreadPool pool(2);
    std::atomic<int> holding{0};
    std::atomic<bool> release{false};
    for (int i = 0; i < 2; ++i)
        pool.submit([&]() {
            ++holding;
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    while (holding.load() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::thread::id> ranOn(4);
    pool.forkJoin(4, [&ranOn](int s) {
        ranOn[s] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : ranOn)
        EXPECT_EQ(id, std::this_thread::get_id());

    release = true;
    pool.wait();
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
