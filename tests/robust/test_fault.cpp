/**
 * @file
 * Tests of the deterministic fault-injection layer: the TQAN_FAULT
 * grammar, the three actions, 1-based nth-hit counting, and the
 * strict-parse/loose-env conventions.  (The `exit` action is
 * exercised end to end by the CLI kill-and-resume CI step, not here —
 * _exit would take the test runner with it.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "robust/fault.h"

using namespace tqan;
using namespace tqan::robust;

namespace {

/** Every test leaves the process disarmed, whatever happened. */
struct PlanGuard
{
    ~PlanGuard() { clearFaultPlan(); }
};

} // namespace

TEST(FaultPlan, ParsesClausesAndDefaultsToThrow)
{
    FaultPlan p = parseFaultPlan(
        "cache.append:3:exit,ckpt.open:1:fail,fuzz.shard:2");
    ASSERT_EQ(p.clauses.size(), 3u);
    EXPECT_EQ(p.clauses[0].site, "cache.append");
    EXPECT_EQ(p.clauses[0].nth, 3u);
    EXPECT_EQ(p.clauses[0].action, FaultAction::Exit);
    EXPECT_EQ(p.clauses[1].site, "ckpt.open");
    EXPECT_EQ(p.clauses[1].action, FaultAction::Fail);
    EXPECT_EQ(p.clauses[2].nth, 2u);
    EXPECT_EQ(p.clauses[2].action, FaultAction::Throw);
}

TEST(FaultPlan, RejectsMalformedClauses)
{
    // A typo must never silently disarm a plan.
    EXPECT_THROW(parseFaultPlan("nosuch.site:1"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append:"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append:x"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append:1junk"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append:0"),
                 std::invalid_argument);  // nth is 1-based
    EXPECT_THROW(parseFaultPlan("cache.append:1:explode"),
                 std::invalid_argument);
    EXPECT_THROW(parseFaultPlan("cache.append:1,,ckpt.open:1"),
                 std::invalid_argument);
}

TEST(FaultPlan, SiteRegistryIsSortedAndCoversTheHotSpots)
{
    const auto &names = faultSiteNames();
    EXPECT_TRUE(
        std::is_sorted(names.begin(), names.end()));
    for (const char *site :
         {"batch.dispatch", "cache.append", "cache.fsync",
          "cache.lookup", "cache.open", "campaign.shard",
          "ckpt.append", "ckpt.fsync", "ckpt.open", "fuzz.shard",
          "service.dispatch", "service.reader", "service.writer",
          "sweep.shard"})
        EXPECT_NE(std::find(names.begin(), names.end(), site),
                  names.end())
            << site;
}

TEST(FaultPoint, DisarmedProbeNeverFires)
{
    PlanGuard guard;
    clearFaultPlan();
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faultPoint("cache.lookup"));
}

TEST(FaultPoint, ConcurrentProbesBeforeAnyPlanAgree)
{
    // No plan installed yet: every thread races the lazy TQAN_FAULT
    // check on the disarmed fast path (a data race checker must stay
    // quiet here).
    PlanGuard guard;
    constexpr int kThreads = 8;
    std::vector<int> fired(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&fired, t]() {
            for (int i = 0; i < 100; ++i)
                fired[t] += faultPoint("batch.dispatch") ? 1 : 0;
        });
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(fired[t], 0);
}

TEST(FaultPoint, FailFiresExactlyOnceAtTheNthHit)
{
    PlanGuard guard;
    setFaultPlan(parseFaultPlan("cache.lookup:3:fail"));
    EXPECT_FALSE(faultPoint("cache.lookup"));  // hit 1
    EXPECT_FALSE(faultPoint("cache.lookup"));  // hit 2
    EXPECT_TRUE(faultPoint("cache.lookup"));   // hit 3: fires
    EXPECT_FALSE(faultPoint("cache.lookup"));  // hit 4: spent
    EXPECT_EQ(faultHits("cache.lookup"), 4u);
}

TEST(FaultPoint, ThrowRaisesInjectedFault)
{
    PlanGuard guard;
    setFaultPlan(parseFaultPlan("sweep.shard:1"));
    EXPECT_THROW(faultPoint("sweep.shard"), InjectedFault);
    // Other sites are untouched.
    EXPECT_FALSE(faultPoint("fuzz.shard"));
}

TEST(FaultPoint, SitesCountIndependently)
{
    PlanGuard guard;
    setFaultPlan(
        parseFaultPlan("cache.lookup:2:fail,ckpt.open:1:fail"));
    EXPECT_TRUE(faultPoint("ckpt.open"));
    EXPECT_FALSE(faultPoint("cache.lookup"));
    EXPECT_TRUE(faultPoint("cache.lookup"));
}

TEST(FaultPoint, InstallingAPlanResetsHitCounters)
{
    PlanGuard guard;
    setFaultPlan(parseFaultPlan("cache.lookup:1:fail"));
    EXPECT_TRUE(faultPoint("cache.lookup"));
    setFaultPlan(parseFaultPlan("cache.lookup:1:fail"));
    EXPECT_EQ(faultHits("cache.lookup"), 0u);
    EXPECT_TRUE(faultPoint("cache.lookup"));
}

TEST(FaultPlan, SummaryRoundTripsTheArmedPlan)
{
    PlanGuard guard;
    setFaultPlan(
        parseFaultPlan("ckpt.append:2:exit,cache.open:1:fail"));
    EXPECT_TRUE(faultPlanArmed());
    EXPECT_EQ(faultPlanSummary(),
              "ckpt.append:2:exit,cache.open:1:fail");
    clearFaultPlan();
    EXPECT_FALSE(faultPlanArmed());
    EXPECT_EQ(faultPlanSummary(), "");
}
