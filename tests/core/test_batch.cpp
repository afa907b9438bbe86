/**
 * @file
 * Property tests for the batch compilation engine: results are
 * bit-identical for any thread count and any job submission order,
 * per-job failures stay contained, and the per-topology distance
 * memo hands every job the same matrix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/batch.h"
#include "core/sweep.h"
#include "device/devices.h"

using namespace tqan;
using core::BatchCompiler;
using core::BatchJob;
using core::BatchJobResult;

namespace {

core::SweepSpec
smallSpec()
{
    core::SweepSpec s;
    s.experiment = "batchtest";
    s.benchmarks = {core::Benchmark::NnnHeisenberg,
                    core::Benchmark::NnnXY,
                    core::Benchmark::QaoaReg3};
    s.devices = {{"grid:3x3", ""}, {"line:9", ""}};
    s.backends = {"2qan", "qiskit_sabre", "tket_like"};
    s.sizes = {6, 8};
    s.trials = 2;
    return s;
}

std::vector<std::string>
csvRows(const std::vector<core::SweepRow> &rows)
{
    std::vector<std::string> out;
    for (const auto &r : rows)
        out.push_back(core::toCsv(r));
    return out;
}

} // namespace

TEST(BatchCompiler, SameSweepIdenticalForJobs1And8)
{
    BatchCompiler seq({1});
    BatchCompiler par({8});
    auto rows1 = core::runSweep(smallSpec(), seq);
    auto rows8 = core::runSweep(smallSpec(), par);
    ASSERT_FALSE(rows1.empty());
    for (const auto &r : rows1)
        EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(csvRows(rows1), csvRows(rows8));
}

TEST(BatchCompiler, ShuffledJobOrderGivesIdenticalPerJobResults)
{
    core::ExpandedSweep ex = core::expandSweep(smallSpec());
    // Tags are unique per job in a sweep expansion.
    {
        std::vector<std::string> tags;
        for (const auto &j : ex.jobs)
            tags.push_back(j.tag);
        std::sort(tags.begin(), tags.end());
        ASSERT_EQ(std::unique(tags.begin(), tags.end()),
                  tags.end());
    }

    BatchCompiler bc({4});
    std::vector<BatchJobResult> ordered = bc.run(ex.jobs);

    std::vector<BatchJob> shuffled = ex.jobs;
    std::mt19937_64 rng(99);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::vector<BatchJobResult> permuted = bc.run(shuffled);

    auto byTag = [](const std::vector<BatchJobResult> &rs) {
        std::map<std::string, const BatchJobResult *> m;
        for (const auto &r : rs)
            m[r.tag] = &r;
        return m;
    };
    auto a = byTag(ordered), b = byTag(permuted);
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[tag, ra] : a) {
        SCOPED_TRACE(tag);
        const BatchJobResult *rb = b.at(tag);
        ASSERT_TRUE(ra->ok());
        ASSERT_TRUE(rb->ok());
        EXPECT_EQ(ra->result.sched.deviceCircuit.str(),
                  rb->result.sched.deviceCircuit.str());
        EXPECT_EQ(ra->result.sched.initialMap,
                  rb->result.sched.initialMap);
        EXPECT_EQ(ra->metrics.swaps, rb->metrics.swaps);
        EXPECT_EQ(ra->metrics.native2q, rb->metrics.native2q);
        EXPECT_EQ(ra->metrics.depth2q, rb->metrics.depth2q);
    }
}

TEST(BatchCompiler, PerJobFailuresStayContained)
{
    core::ExpandedSweep ex = core::expandSweep(smallSpec());
    ASSERT_GE(ex.jobs.size(), 3u);
    std::vector<BatchJob> jobs(ex.jobs.begin(),
                               ex.jobs.begin() + 3);
    jobs[0].backend = "no_such_backend";
    jobs[1].job.step = nullptr;  // 2qan requires a step circuit
    jobs[1].backend = "2qan";

    BatchCompiler bc({2});
    auto results = bc.run(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("no_such_backend"),
              std::string::npos);
    EXPECT_FALSE(results[1].ok());
    EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(BatchCompiler, NestedDefaultTrialWorkersMatchSequential)
{
    // Three batch workers whose 2qan compiles fork their mapping
    // trials onto the shared pool at once (the default jobs) give the
    // schedules of one worker running every trial in turn.
    core::SweepSpec spec = smallSpec();
    spec.backends = {"2qan"};
    spec.sizes = {8, 12};
    spec.devices = {{"grid:4x4", ""}, {"heavyhex:3", ""}};
    core::ExpandedSweep seqJobs = core::expandSweep(spec);
    core::ExpandedSweep parJobs = core::expandSweep(spec);
    ASSERT_FALSE(seqJobs.jobs.empty());
    for (auto &j : seqJobs.jobs)
        j.job.options.jobs = 1;
    for (auto &j : parJobs.jobs)
        j.job.options.jobs = core::CompilerOptions().jobs;

    auto seq = BatchCompiler({1}).run(seqJobs.jobs);
    auto par = BatchCompiler({3}).run(parJobs.jobs);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE(seq[i].tag);
        ASSERT_TRUE(seq[i].ok()) << seq[i].error;
        ASSERT_TRUE(par[i].ok()) << par[i].error;
        EXPECT_EQ(seq[i].result.placement, par[i].result.placement);
        EXPECT_EQ(seq[i].result.sched.deviceCircuit.str(),
                  par[i].result.sched.deviceCircuit.str());
        EXPECT_EQ(seq[i].metrics.swaps, par[i].metrics.swaps);
    }
}
