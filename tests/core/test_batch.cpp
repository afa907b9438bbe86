/**
 * @file
 * Property tests for the batch compilation engine: results are
 * bit-identical for any `jobs` value and any job submission order,
 * per-job failures stay contained, the per-topology distance memo
 * hands every job the same matrix, concurrent runOne() calls match
 * sequential ones, and no `jobs` value starts a thread of its own.
 */

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <random>

#include "core/batch.h"
#include "core/sweep.h"
#include "core/thread_pool.h"
#include "device/devices.h"
#include "sim/engine.h"

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

/** Threads of this process (entries of /proc/self/task), or -1 when
 * /proc is not mounted. */
int
threadCount()
{
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return -1;
    int n = 0;
    while (const dirent *e = readdir(dir))
        if (e->d_name[0] != '.')
            ++n;
    closedir(dir);
    return n;
}

void
expectSameResults(const std::vector<BatchJobResult> &a,
                  const std::vector<BatchJobResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].tag);
        ASSERT_TRUE(a[i].ok()) << a[i].error;
        ASSERT_TRUE(b[i].ok()) << b[i].error;
        EXPECT_EQ(a[i].tag, b[i].tag);
        EXPECT_EQ(a[i].result.initialLayout(),
                  b[i].result.initialLayout());
        EXPECT_EQ(a[i].result.sched.deviceCircuit.str(),
                  b[i].result.sched.deviceCircuit.str());
        EXPECT_EQ(a[i].metrics.swaps, b[i].metrics.swaps);
        EXPECT_EQ(a[i].metrics.native2q, b[i].metrics.native2q);
        EXPECT_EQ(a[i].metrics.depth2q, b[i].metrics.depth2q);
    }
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
        EXPECT_EQ(seq[i].result.initialLayout(),
                  par[i].result.initialLayout());
        EXPECT_EQ(seq[i].result.sched.deviceCircuit.str(),
                  par[i].result.sched.deviceCircuit.str());
        EXPECT_EQ(seq[i].metrics.swaps, par[i].metrics.swaps);
    }
}

TEST(BatchCompiler, WideJobsStartNoThreadAndMatchOneJob)
{
    // `jobs` only caps the slots one batch takes on the shared pool:
    // constructing a 64-wide BatchCompiler or Engine starts nothing,
    // a run starts no thread beyond the shared pool's, and the
    // results equal jobs = 1 job by job.  The pool is started first,
    // so `before` also holds any helper thread a sanitizer runtime
    // starts with the first pthread_create.
    core::ThreadPool::shared();
    const int before = threadCount();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/task is not available";
    BatchCompiler wide({64});
    sim::Engine eng(64);
    EXPECT_EQ(threadCount(), before);
    EXPECT_EQ(eng.jobs(), 64);

    core::ExpandedSweep ex = core::expandSweep(smallSpec());
    std::vector<BatchJobResult> par = wide.run(ex.jobs);
    EXPECT_EQ(threadCount(), before);
    expectSameResults(BatchCompiler({1}).run(ex.jobs), par);
}

TEST(BatchCompiler, ConcurrentRunOneMatchesSequential)
{
    // runOne() from several forkJoin slots at once, each slot taking
    // every fourth job, gives what one caller gets in turn.
    core::ExpandedSweep ex = core::expandSweep(smallSpec());
    BatchCompiler bc({2});
    std::vector<BatchJobResult> seq;
    for (const BatchJob &j : ex.jobs)
        seq.push_back(bc.runOne(j));

    const int slots = 4;
    std::vector<BatchJobResult> par(ex.jobs.size());
    core::ThreadPool::shared().forkJoin(slots, [&](int s) {
        for (size_t i = s; i < ex.jobs.size(); i += slots)
            par[i] = bc.runOne(ex.jobs[i]);
    });
    expectSameResults(seq, par);
}
