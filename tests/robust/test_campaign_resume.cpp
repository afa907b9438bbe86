/**
 * @file
 * End-to-end kill-and-resume proofs on the real campaign consumers:
 * a sweep, a bench and a fuzz run interrupted mid-campaign
 * (stopAfter — the deterministic stand-in for SIGKILL; the durable
 * shards are exactly those journaled) must, after --resume, produce
 * output byte-identical to a never-interrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/batch.h"
#include "core/sweep.h"
#include "robust/fault.h"
#include "robust/runner.h"
#include "verify/fuzz.h"

using namespace tqan;

namespace {

struct Guard
{
    ~Guard()
    {
        robust::clearFaultPlan();
        robust::resetCampaignStop();
    }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_resume_" + name + ".ckpt";
}

core::SweepSpec
smallSpec()
{
    std::istringstream in(
        "experiment = resume-test\n"
        "benchmarks = NNN_XY\n"
        "devices = line:6\n"
        "backends = 2qan\n"
        "sizes = 4 5\n"
        "instances = 2\n"
        "trials = 2\n");
    return core::parseSweepSpec(in);
}

std::string
csvOf(const std::vector<core::SweepRow> &rows)
{
    std::string out = core::sweepCsvHeader() + "\n";
    for (const auto &r : rows)
        out += core::toCsv(r) + "\n";
    return out;
}

/** Every bench phase in a few shards: two compile jobs, their two
 * scalar-pinned repeats, and one scalar-forced sim case. */
core::SweepSpec
smallBenchSpec()
{
    core::SweepSpec spec = smallSpec();
    spec.experiment = "bench-resume-test";
    spec.instances = 1;
    spec.simdPairedCompile = true;
    spec.simCases = {{"traj", 6, 1, 2, 0, true}};
    return spec;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

verify::FuzzOptions
smallFuzz()
{
    verify::FuzzOptions opt;
    opt.iterations = 5;
    opt.seed = 11;
    opt.campaign.workers = 2;
    opt.backends = {"2qan"};
    opt.scenario.maxQubits = 5;
    opt.scenario.maxDeviceQubits = 7;
    opt.check.equivalence.trials = 2;
    return opt;
}

} // namespace

TEST(CampaignResume, SweepResumesToByteIdenticalCsv)
{
    Guard guard;
    std::string path = tempPath("sweep");
    std::remove(path.c_str());
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({2});

    std::string straight = csvOf(core::runSweep(spec, bc));

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.stopAfter = 2;
    core::SweepCampaignOutcome cut =
        core::runSweepCampaign(spec, bc, co);
    ASSERT_TRUE(cut.tallies.interrupted);
    ASSERT_GT(cut.tallies.skipped, 0u);

    robust::CampaignOptions rco;
    rco.checkpoint = path;
    rco.resume = true;
    core::SweepCampaignOutcome resumed =
        core::runSweepCampaign(spec, bc, rco);
    EXPECT_FALSE(resumed.tallies.interrupted);
    EXPECT_GE(resumed.tallies.restored, 2u);
    EXPECT_EQ(csvOf(resumed.rows), straight);
    std::remove(path.c_str());
}

TEST(CampaignResume, SweepResumeRejectsADifferentSpec)
{
    Guard guard;
    std::string path = tempPath("sweep_spec");
    std::remove(path.c_str());
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({1});

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.stopAfter = 1;
    core::runSweepCampaign(spec, bc, co);

    // The config tag pins the whole spec: resuming with even one
    // knob changed must be an error, not quietly mixed results.
    core::SweepSpec other = spec;
    other.trials = 3;
    robust::CampaignOptions rco;
    rco.checkpoint = path;
    rco.resume = true;
    EXPECT_THROW(core::runSweepCampaign(other, bc, rco),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(CampaignResume, FuzzResumesToByteIdenticalSummary)
{
    Guard guard;
    std::string path = tempPath("fuzz");
    std::remove(path.c_str());
    verify::FuzzOptions opt = smallFuzz();

    verify::FuzzSummary straight = verify::runFuzz(opt);

    verify::FuzzOptions cutOpt = smallFuzz();
    cutOpt.campaign.checkpoint = path;
    cutOpt.campaign.stopAfter = 2;
    verify::FuzzSummary cut = verify::runFuzz(cutOpt);
    ASSERT_TRUE(cut.interrupted);
    ASSERT_GT(cut.skippedShards, 0u);

    verify::FuzzOptions resOpt = smallFuzz();
    resOpt.campaign.checkpoint = path;
    resOpt.campaign.resume = true;
    verify::FuzzSummary resumed = verify::runFuzz(resOpt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GE(resumed.restoredShards, 2u);
    EXPECT_EQ(verify::summaryLine(resumed),
              verify::summaryLine(straight));
    EXPECT_EQ(resumed.cases, straight.cases);
    std::remove(path.c_str());
}

TEST(CampaignResume, SweepShardFaultIsRetriedTransparently)
{
    Guard guard;
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({1});
    std::string straight = csvOf(core::runSweep(spec, bc));

    // One injected shard failure: the retry must reproduce the
    // identical row (shard functions are pure in the shard index).
    robust::setFaultPlan(robust::parseFaultPlan("sweep.shard:2"));
    robust::CampaignOptions co;
    co.retries = 2;
    co.backoff = 0.001;
    core::SweepCampaignOutcome out =
        core::runSweepCampaign(spec, bc, co);
    robust::clearFaultPlan();
    EXPECT_GE(out.tallies.retried, 1u);
    EXPECT_EQ(out.tallies.quarantined, 0u);
    EXPECT_EQ(csvOf(out.rows), straight);
}

TEST(CampaignResume, BenchResumesEveryPhaseToJournaledRows)
{
    Guard guard;
    std::string path = tempPath("bench");
    for (const char *suffix : {"", ".scalar", ".sim"})
        std::remove((path + suffix).c_str());
    core::SweepSpec spec = smallBenchSpec();
    core::BatchCompiler bc({1});
    const core::BenchOptions opt{/*warmup=*/0, /*repeat=*/1};

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.workers = 1;

    // Cut 1 stops inside the compile phase, so no later phase runs.
    co.stopAfter = 1;
    core::BenchCampaignOutcome first =
        core::runBenchCampaign(spec, bc, opt, co);
    ASSERT_TRUE(first.tallies.interrupted);
    ASSERT_EQ(first.rows.size(), 2u);

    // Cut 2 finishes the compile phase and stops inside the scalar
    // phase; the sim phase still does not start.
    co.resume = true;
    core::BenchCampaignOutcome second =
        core::runBenchCampaign(spec, bc, opt, co);
    ASSERT_TRUE(second.tallies.interrupted);
    ASSERT_EQ(second.rows.size(), 4u);
    EXPECT_EQ(second.tallies.restored, 1u);

    co.stopAfter = 0;
    core::BenchCampaignOutcome done =
        core::runBenchCampaign(spec, bc, opt, co);
    EXPECT_FALSE(done.tallies.interrupted);
    EXPECT_EQ(done.tallies.restored, 3u);
    ASSERT_EQ(done.rows.size(), 5u);
    for (const auto &r : done.rows)
        EXPECT_TRUE(r.ok()) << r.key() << ": " << r.error;

    // A journaled row replays verbatim, timings included.
    for (const auto *cut : {&first, &second}) {
        for (size_t i = 0; i < cut->rows.size(); ++i) {
            if (cut->rows[i].ok()) {
                EXPECT_EQ(core::benchRowJson(done.rows[i]),
                          core::benchRowJson(cut->rows[i]))
                    << "row " << i;
            }
        }
    }
    for (const char *suffix : {"", ".scalar", ".sim"}) {
        EXPECT_TRUE(fileExists(path + suffix)) << path + suffix;
        std::remove((path + suffix).c_str());
    }
}

TEST(CampaignResume, BenchQuarantinesAFailingShardInEveryPhase)
{
    Guard guard;
    core::SweepSpec spec = smallBenchSpec();
    core::BatchCompiler bc({1});

    // sweep.shard counts hits across phases: 1 and 2 are the compile
    // shards, 3 and 4 the scalar ones, 5 the sim case.
    robust::setFaultPlan(robust::parseFaultPlan(
        "sweep.shard:1,sweep.shard:3,sweep.shard:5"));
    robust::CampaignOptions co;
    co.retries = 0;
    co.workers = 1;
    core::BenchCampaignOutcome out =
        core::runBenchCampaign(spec, bc, {0, 1}, co);
    robust::clearFaultPlan();

    EXPECT_FALSE(out.tallies.interrupted);
    EXPECT_EQ(out.tallies.quarantined, 3u);
    ASSERT_EQ(out.rows.size(), 5u);
    const char *backends[] = {"2qan", "2qan", "2qan-scalar",
                              "2qan-scalar", "engine-scalar"};
    const int sizes[] = {4, 5, 4, 5, 6};
    for (size_t i = 0; i < out.rows.size(); ++i) {
        const core::BenchRow &r = out.rows[i];
        EXPECT_EQ(r.backend, backends[i]) << "row " << i;
        EXPECT_EQ(r.nqubits, sizes[i]) << "row " << i;
        EXPECT_EQ(r.instance, 0) << "row " << i;
        bool failed = i == 0 || i == 2 || i == 4;
        if (failed) {
            EXPECT_EQ(r.error.rfind("quarantined: ", 0), 0u)
                << "row " << i << ": " << r.error;
        } else {
            EXPECT_TRUE(r.ok()) << "row " << i << ": " << r.error;
        }
    }
    EXPECT_EQ(out.rows[4].benchmark, "traj");
    EXPECT_EQ(out.rows[4].device, "simulator");
    EXPECT_EQ(out.rows[0].benchmark, "NNN_XY");
    EXPECT_EQ(out.rows[0].device, out.rows[1].device);
    EXPECT_EQ(out.rows[2].gateset, out.rows[3].gateset);
}
