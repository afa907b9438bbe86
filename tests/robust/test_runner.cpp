/**
 * @file
 * Tests of the supervised campaign runner: worker-count invariance,
 * retry/quarantine supervision, checkpointed interrupt + resume
 * byte-identity, and the forked-process worker mode (the only mode
 * with shard deadlines).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "robust/fault.h"
#include "robust/runner.h"

using namespace tqan;
using namespace tqan::robust;

namespace {

struct Guard
{
    ~Guard()
    {
        clearFaultPlan();
        resetCampaignStop();
    }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_campaign_" + name + ".ckpt";
}

/** The canonical deterministic shard function. */
std::string
payloadOf(std::uint64_t shard)
{
    return "payload-" + std::to_string(shard * 2654435761u);
}

ShardFn
simpleWork()
{
    return [](std::uint64_t shard, int) { return payloadOf(shard); };
}

std::string
joined(const std::vector<std::string> &payloads)
{
    std::string all;
    for (const auto &p : payloads)
        all += p + "\n";
    return all;
}

} // namespace

TEST(CampaignRunner, ZeroShardsCompletesEmpty)
{
    Guard guard;
    CampaignResult r = runCampaign(0, simpleWork(), {});
    EXPECT_TRUE(r.complete());
    EXPECT_TRUE(r.payloads.empty());
    EXPECT_EQ(r.completed, 0u);
    EXPECT_FALSE(r.interrupted);
}

TEST(CampaignRunner, SingleShardInline)
{
    Guard guard;
    CampaignResult r = runCampaign(1, simpleWork(), {});
    ASSERT_TRUE(r.complete());
    ASSERT_EQ(r.payloads.size(), 1u);
    EXPECT_EQ(r.payloads[0], payloadOf(0));
    EXPECT_EQ(r.shards[0].state, ShardState::Done);
}

TEST(CampaignRunner, AggregateIsIdenticalForAnyWorkerCount)
{
    Guard guard;
    CampaignOptions base;
    CampaignResult one = runCampaign(16, simpleWork(), base);
    ASSERT_TRUE(one.complete());
    for (int workers : {2, 5, 16}) {
        CampaignOptions co;
        co.workers = workers;
        CampaignResult r = runCampaign(16, simpleWork(), co);
        ASSERT_TRUE(r.complete()) << workers << " workers";
        EXPECT_EQ(joined(r.payloads), joined(one.payloads))
            << workers << " workers";
    }
}

TEST(CampaignRunner, FailingAttemptIsRetriedThenSucceeds)
{
    Guard guard;
    CampaignOptions co;
    co.retries = 2;
    co.backoff = 0.001;
    ShardFn flaky = [](std::uint64_t shard, int attempt) {
        if (shard == 2 && attempt == 0)
            throw std::runtime_error("transient shard failure");
        return payloadOf(shard);
    };
    CampaignResult r = runCampaign(4, flaky, co);
    ASSERT_TRUE(r.complete());
    EXPECT_GE(r.retried, 1u);
    EXPECT_EQ(r.payloads[2], payloadOf(2));
    EXPECT_EQ(r.shards[2].attempts, 2);
}

TEST(CampaignRunner, ExhaustedRetriesQuarantineButTheCampaignEnds)
{
    Guard guard;
    CampaignOptions co;
    co.retries = 1;
    co.backoff = 0.001;
    ShardFn cursed = [](std::uint64_t shard, int) -> std::string {
        if (shard == 1)
            throw std::runtime_error("always fails");
        return payloadOf(shard);
    };
    CampaignResult r = runCampaign(3, cursed, co);
    // Graceful degradation: the other shards resolved, the campaign
    // returned normally, and the quarantined shard is reported.
    EXPECT_FALSE(r.complete());
    EXPECT_FALSE(r.interrupted);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.completed, 2u);
    EXPECT_EQ(r.shards[1].state, ShardState::Quarantined);
    EXPECT_NE(r.shards[1].error.find("always fails"),
              std::string::npos);
    EXPECT_EQ(r.payloads[1], "");
    EXPECT_EQ(r.payloads[0], payloadOf(0));
    EXPECT_EQ(r.payloads[2], payloadOf(2));
}

TEST(CampaignRunner, DeadlineRequiresProcessMode)
{
    Guard guard;
    std::string path = tempPath("deadline_threads");
    std::remove(path.c_str());
    // A hung thread cannot be killed, so an in-process deadline could
    // only abandon a worker still running the caller's shard fn.
    // Rejected up front, before any shard runs or journal opens.
    for (int workers : {1, 2}) {
        CampaignOptions co;
        co.workers = workers;
        co.shardDeadline = 0.15;
        co.checkpoint = path;
        int calls = 0;
        ShardFn counting = [&calls](std::uint64_t shard, int) {
            ++calls;
            return payloadOf(shard);
        };
        EXPECT_THROW(runCampaign(3, counting, co),
                     std::invalid_argument)
            << workers << " workers";
        EXPECT_EQ(calls, 0);
        EXPECT_NE(access(path.c_str(), F_OK), 0)
            << "journal created for a rejected campaign";
    }
}

TEST(CampaignRunner, StopAfterInterruptsAndResumeIsByteIdentical)
{
    Guard guard;
    std::string path = tempPath("resume");

    CampaignResult straight = runCampaign(8, simpleWork(), {});
    ASSERT_TRUE(straight.complete());

    for (int workers : {1, 4}) {
        std::remove(path.c_str());
        CampaignOptions co;
        co.workers = workers;
        co.checkpoint = path;
        co.configTag = "runner-test v1";
        co.stopAfter = 3;
        CampaignResult cut = runCampaign(8, simpleWork(), co);
        EXPECT_TRUE(cut.interrupted) << workers << " workers";
        EXPECT_FALSE(cut.complete()) << workers << " workers";
        EXPECT_GE(cut.completed, 3u) << workers << " workers";
        EXPECT_GT(cut.skipped, 0u) << workers << " workers";

        CampaignOptions rco;
        rco.workers = workers;
        rco.checkpoint = path;
        rco.configTag = "runner-test v1";
        rco.resume = true;
        CampaignResult resumed = runCampaign(8, simpleWork(), rco);
        ASSERT_TRUE(resumed.complete()) << workers << " workers";
        EXPECT_GE(resumed.restored, 3u) << workers << " workers";
        // The pinned property: interrupted + resumed ==
        // uninterrupted, byte for byte.
        EXPECT_EQ(joined(resumed.payloads), joined(straight.payloads))
            << workers << " workers";
    }
    std::remove(path.c_str());
}

TEST(CampaignRunner, ResumeRejectsAForeignCampaignTag)
{
    Guard guard;
    std::string path = tempPath("foreign_tag");
    std::remove(path.c_str());
    CampaignOptions co;
    co.checkpoint = path;
    co.configTag = "campaign A";
    ASSERT_TRUE(runCampaign(2, simpleWork(), co).complete());

    CampaignOptions other;
    other.checkpoint = path;
    other.configTag = "campaign B";
    other.resume = true;
    EXPECT_THROW(runCampaign(2, simpleWork(), other),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(CampaignRunner, FreshRunOverAnOldJournalStartsOver)
{
    Guard guard;
    std::string path = tempPath("fresh_reset");
    std::remove(path.c_str());
    CampaignOptions co;
    co.checkpoint = path;
    co.configTag = "tag";
    ASSERT_TRUE(runCampaign(3, simpleWork(), co).complete());
    // Same journal, resume NOT requested: recompute everything
    // rather than silently merging with the previous run.
    CampaignResult again = runCampaign(3, simpleWork(), co);
    ASSERT_TRUE(again.complete());
    EXPECT_EQ(again.restored, 0u);
    EXPECT_EQ(again.completed, 3u);
    std::remove(path.c_str());
}

TEST(CampaignRunner, InjectedShardFaultCostsOneAttempt)
{
    Guard guard;
    CampaignOptions co;
    co.retries = 2;
    co.backoff = 0.001;
    setFaultPlan(parseFaultPlan("campaign.shard:2"));
    CampaignResult r = runCampaign(4, simpleWork(), co);
    clearFaultPlan();
    ASSERT_TRUE(r.complete());
    EXPECT_GE(r.retried, 1u);
}

TEST(CampaignRunnerProcess, CrashingChildCostsARetryNotTheCampaign)
{
    Guard guard;
    CampaignOptions co;
    co.processes = 2;
    co.retries = 2;
    co.backoff = 0.001;
    // In process mode the shard fn runs in a forked child: _exit is
    // a real crash (no destructors, no flushing), exactly what an
    // OOM-kill or segfault leaves behind.
    ShardFn crashy = [](std::uint64_t shard, int attempt) {
        if (shard == 1 && attempt == 0)
            _exit(3);
        return payloadOf(shard);
    };
    CampaignResult r = runCampaign(3, crashy, co);
    ASSERT_TRUE(r.complete());
    EXPECT_GE(r.retried, 1u);
    EXPECT_EQ(r.payloads[1], payloadOf(1));
}

TEST(CampaignRunnerProcess, AlwaysCrashingChildIsQuarantined)
{
    Guard guard;
    CampaignOptions co;
    co.processes = 1;
    co.retries = 1;
    co.backoff = 0.001;
    ShardFn doomed = [](std::uint64_t shard, int) -> std::string {
        if (shard == 0)
            _exit(3);
        return payloadOf(shard);
    };
    CampaignResult r = runCampaign(2, doomed, co);
    EXPECT_EQ(r.quarantined, 1u);
    EXPECT_EQ(r.shards[0].state, ShardState::Quarantined);
    EXPECT_EQ(r.payloads[1], payloadOf(1));
    EXPECT_FALSE(r.interrupted);
}

TEST(CampaignRunnerProcess, HungChildIsKilledAndRequeued)
{
    Guard guard;
    CampaignOptions co;
    co.processes = 2;
    co.shardDeadline = 0.15;
    co.retries = 2;
    co.backoff = 0.001;
    ShardFn hanger = [](std::uint64_t shard, int attempt) {
        if (shard == 0 && attempt == 0)
            std::this_thread::sleep_for(std::chrono::seconds(30));
        return payloadOf(shard);
    };
    CampaignResult r = runCampaign(2, hanger, co);
    ASSERT_TRUE(r.complete());
    EXPECT_GE(r.shards[0].attempts, 2);
    EXPECT_EQ(r.payloads[0], payloadOf(0));
}

TEST(CampaignRunnerProcess, ResumeIsByteIdenticalAcrossModes)
{
    Guard guard;
    std::string path = tempPath("proc_resume");
    std::remove(path.c_str());

    CampaignResult straight = runCampaign(6, simpleWork(), {});

    CampaignOptions co;
    co.processes = 2;
    co.checkpoint = path;
    co.configTag = "proc v1";
    co.stopAfter = 2;
    CampaignResult cut = runCampaign(6, simpleWork(), co);
    EXPECT_TRUE(cut.interrupted);

    // Resume in THREAD mode: the journal doesn't care which mode
    // computed a shard, payloads are payloads.
    CampaignOptions rco;
    rco.workers = 3;
    rco.checkpoint = path;
    rco.configTag = "proc v1";
    rco.resume = true;
    CampaignResult resumed = runCampaign(6, simpleWork(), rco);
    ASSERT_TRUE(resumed.complete());
    EXPECT_EQ(joined(resumed.payloads), joined(straight.payloads));
    std::remove(path.c_str());
}
