/**
 * @file
 * The beyond-statevector acceptance gate (ctest label: oracle):
 * Clifford-restricted fuzzing at >= 100 qubits must verify EXACTLY
 * (stabilizer oracle, zero failures, zero skips) over >= 500 seeded
 * scenarios across every registered backend, and the mutation
 * campaign on that leg must detect >= 95% of injected single-gate
 * corruptions (non-Clifford mutants exercise the pauli-probe
 * oracle).  Plus the jobs-count determinism contract for the new
 * scenario options.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/backend.h"
#include "verify/fuzz.h"

using namespace tqan;

TEST(FuzzClifford, FiveHundredScenariosAtHundredQubitsExact)
{
    verify::FuzzOptions opt;
    opt.iterations = 500;
    opt.seed = 2;
    opt.campaign.workers = 8;
    opt.mapperTrials = 1;
    opt.check.checkDecompositions = false;
    opt.scenario.cliffordOnly = true;
    opt.scenario.minQubits = 100;
    opt.scenario.maxQubits = 112;
    opt.scenario.maxDeviceQubits = 128;
    opt.scenario.structuredFraction = 0.5;  // grid / heavy-hex legs

    // The gate covers every registered backend, including the
    // ripup-and-reroute pipeline.
    std::vector<std::string> names = core::backendNames();
    ASSERT_NE(std::find(names.begin(), names.end(), "2qan_rrr"),
              names.end());

    verify::FuzzSummary sum = verify::runFuzz(opt);

    EXPECT_EQ(sum.scenarios, 500);
    // Five backends take every workload; ic_qaoa joins on the
    // diagonal (clifford_qaoa) half.
    EXPECT_GE(sum.cases, 5 * 500);
    for (const auto &f : sum.failures)
        ADD_FAILURE() << f.backend << " on " << f.scenarioName
                      << ": " << f.error << "\nreproducer:\n"
                      << f.reproducer;
    EXPECT_TRUE(sum.ok());
    // The stabilizer oracle is exact at any width: no case may come
    // back oracle-unavailable on the Clifford leg.
    EXPECT_EQ(sum.skippedCases, 0);
}

TEST(FuzzClifford, MutationDetectionAtScale)
{
    verify::FuzzOptions opt;
    opt.iterations = 60;
    opt.seed = 3;
    opt.campaign.workers = 8;
    opt.mapperTrials = 1;
    opt.mutationsPerCase = 1;
    opt.check.checkDecompositions = false;
    // Non-Clifford mutants of 100-qubit circuits land in the
    // pauli-probe oracle, whose per-probe lightcone is local; a
    // wider probe plan keeps coverage of the whole register.
    opt.check.equivalence.probesPerTrial = 48;
    opt.scenario.cliffordOnly = true;
    opt.scenario.minQubits = 100;
    opt.scenario.maxQubits = 104;
    opt.scenario.maxDeviceQubits = 112;
    opt.scenario.structuredFraction = 0.5;

    verify::FuzzSummary sum = verify::runFuzz(opt);

    EXPECT_TRUE(sum.ok());
    EXPECT_EQ(sum.skippedCases, 0);
    EXPECT_GT(sum.mutationsTried, 100);
    EXPECT_GE(sum.detectionRate(), 0.95)
        << "detected only " << sum.mutationsDetected << " of "
        << sum.mutationsTried << " injected corruptions";
}

TEST(FuzzClifford, SummaryIndependentOfJobsWithNewOptions)
{
    // The determinism contract must hold with every new scenario
    // option switched on (Clifford kinds, structured topologies,
    // noise maps all draw from the same seeded streams).
    verify::FuzzOptions opt;
    opt.iterations = 16;
    opt.seed = 91;
    opt.mapperTrials = 1;
    opt.check.checkDecompositions = false;
    opt.scenario.cliffordOnly = true;
    opt.scenario.minQubits = 60;
    opt.scenario.maxQubits = 70;
    opt.scenario.maxDeviceQubits = 80;
    opt.scenario.structuredFraction = 0.5;
    opt.scenario.withNoise = true;

    opt.campaign.workers = 1;
    verify::FuzzSummary s1 = verify::runFuzz(opt);
    opt.campaign.workers = 5;
    verify::FuzzSummary s5 = verify::runFuzz(opt);

    EXPECT_TRUE(s1.ok());
    EXPECT_EQ(verify::summaryLine(s1), verify::summaryLine(s5));
    EXPECT_EQ(s1.cases, s5.cases);
    EXPECT_EQ(s1.skippedCases, s5.skippedCases);
}
