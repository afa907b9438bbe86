/**
 * @file
 * The end-to-end acceptance gate of the correctness subsystem
 * (ctest label: verify):
 *
 *  - 500 seeded scenarios across every registered backend must
 *    verify with zero equivalence failures, and
 *  - the mutation campaign must detect >= 95% of injected
 *    single-gate corruptions
 *
 * plus the harness-level contracts: jobs-count invariance,
 * reproducer round-tripping, and shrinking producing smaller
 * still-failing instances.
 */

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/batch.h"
#include "core/sweep.h"
#include "ham/trotter.h"
#include "verify/fuzz.h"
#include "verify/mutate.h"
#include "verify/reference.h"

using namespace tqan;

TEST(FuzzAcceptance, FiveHundredScenariosZeroFailures)
{
    verify::FuzzOptions opt;
    opt.iterations = 500;
    opt.seed = 1;
    opt.campaign.workers = 8;
    opt.mutationsPerCase = 2;

    verify::FuzzSummary sum = verify::runFuzz(opt);

    EXPECT_EQ(sum.scenarios, 500);
    // Every scenario compiles on several backends (ic_qaoa joins on
    // diagonal workloads only).
    EXPECT_GE(sum.cases, 4 * 500);
    for (const auto &f : sum.failures)
        ADD_FAILURE() << f.backend << " on " << f.scenarioName
                      << ": " << f.error << "\nreproducer:\n"
                      << f.reproducer;
    EXPECT_TRUE(sum.ok());

    EXPECT_GT(sum.mutationsTried, 1000);
    EXPECT_GE(sum.detectionRate(), 0.95)
        << "mutation campaign detected only "
        << sum.mutationsDetected << " of " << sum.mutationsTried;
}

TEST(FuzzAcceptance, SummaryIndependentOfJobs)
{
    verify::FuzzOptions opt;
    opt.iterations = 40;
    opt.seed = 77;
    opt.mutationsPerCase = 1;

    opt.campaign.workers = 1;
    verify::FuzzSummary s1 = verify::runFuzz(opt);
    opt.campaign.workers = 8;
    verify::FuzzSummary s8 = verify::runFuzz(opt);

    EXPECT_EQ(verify::summaryLine(s1), verify::summaryLine(s8));
    EXPECT_EQ(s1.cases, s8.cases);
    EXPECT_EQ(s1.mutationsTried, s8.mutationsTried);
    EXPECT_EQ(s1.mutationsDetected, s8.mutationsDetected);
}

TEST(FuzzAcceptance, ReproducerRoundTripsAndReplays)
{
    testgen::Scenario s = testgen::randomScenario(1234);
    std::string spec = testgen::toSpec(s);
    testgen::Scenario back = testgen::scenarioFromSpec(spec);

    EXPECT_EQ(back.seed, s.seed);
    EXPECT_DOUBLE_EQ(back.time, s.time);
    EXPECT_EQ(back.topo.numQubits(), s.topo.numQubits());
    EXPECT_EQ(back.topo.edges(), s.topo.edges());
    EXPECT_EQ(back.hamiltonian->pairs().size(),
              s.hamiltonian->pairs().size());
    EXPECT_EQ(back.step->size(), s.step->size());

    // A replayed clean scenario stays clean on every backend.
    verify::FuzzOptions opt;
    EXPECT_TRUE(verify::runScenario(back, opt).empty());
}

TEST(FuzzAcceptance, MutatedResultIsCaughtAndReported)
{
    // One hand-driven mutation round: compile, corrupt, expect the
    // harness-level detection path (the same code runFuzz uses) to
    // reject — pinned here so a silent oracle regression cannot
    // hide behind aggregate rates.
    testgen::Scenario s = testgen::randomScenario(555);
    verify::FuzzOptions opt;
    core::CompileJob job;
    job.step = s.step.get();
    job.hamiltonian = s.hamiltonian.get();
    job.time = s.time;
    job.options.seed = 9;
    job.options.mapperTrials = 2;
    core::CompileResult res =
        core::backendByName("2qan").compile(job, s.topo);

    verify::UnmappedReference ref = verify::unmapDeviceCircuit(
        res.sched.deviceCircuit, res.initialLayout(),
        s.step->numQubits());
    ASSERT_TRUE(ref.ok) << ref.error;

    std::mt19937_64 rng(3);
    verify::EquivalenceChecker checker;
    int tried = 0, caught = 0;
    for (int m = 0; m < 20; ++m) {
        verify::Mutation mut;
        if (!verify::mutateCircuit(res.sched.deviceCircuit, rng,
                                   &mut))
            break;
        ++tried;
        if (!checker
                 .check(ref.logical, mut.circuit,
                        res.initialLayout(), res.finalLayout())
                 .equivalent)
            ++caught;
    }
    ASSERT_GT(tried, 0);
    EXPECT_EQ(caught, tried);
}

TEST(FuzzAcceptance, ShrinkingProducesMinimalReproducers)
{
    // Force every case to "fail" (impossible tolerance) so the
    // shrinking pipeline runs for real: reproducers must come back
    // parseable and reduced to a single Hamiltonian term (any term
    // keeps an impossible check failing, so greedy removal bottoms
    // out at one).
    verify::FuzzOptions opt;
    opt.iterations = 3;
    opt.seed = 50;
    opt.backends = {"2qan"};
    opt.check.equivalence.tolerance = -1.0;
    opt.check.equivalence.trials = 1;
    opt.check.checkDecompositions = false;
    opt.shrink = true;
    opt.campaign.workers = 3;

    verify::FuzzSummary sum = verify::runFuzz(opt);
    ASSERT_EQ(sum.failures.size(), 3u);
    for (const auto &f : sum.failures) {
        testgen::Scenario repro =
            testgen::scenarioFromSpec(f.reproducer);
        EXPECT_EQ(repro.hamiltonian->pairs().size() +
                      repro.hamiltonian->fields().size(),
                  1u)
            << f.reproducer;
        // And the shrunk case still fails under the same options.
        EXPECT_FALSE(verify::runScenario(repro, opt).empty());
    }
}

TEST(FuzzAcceptance, VerifySweepPresetRunsClean)
{
    // The sweep-integrated verification path: the canonical small
    // all-backend grid with spec.verify on must produce zero row
    // errors.
    core::SweepSpec spec = core::sweepPreset("verify");
    ASSERT_TRUE(spec.verify);
    core::BatchCompiler bc({4});
    for (const auto &row : core::runSweep(spec, bc))
        EXPECT_TRUE(row.ok())
            << row.benchmark << "/" << row.device << "/"
            << row.backend << " n=" << row.nqubits << ": "
            << row.error;
}
