/**
 * @file
 * Cross-backend differential fuzz harness: generator -> every
 * registered backend -> end-to-end checker, in a seeded,
 * batch-parallel loop.
 *
 * Each iteration draws one testgen scenario from its seed, compiles
 * it with every requested backend, and runs the full
 * verify::checkCompilation stack (un-map, layout, multiset, unitary
 * oracle, decomposition re-verify) on each result.  A backend that
 * throws is a finding too — generated scenarios always satisfy every
 * backend's preconditions, so an exception is a crash-class bug, not
 * an input error.
 *
 * Failures are shrunk to minimal reproducers (greedy Hamiltonian
 * term removal to a fixpoint: each removed term must keep the
 * failure alive) and serialized in the testgen reproducer format;
 * replayScenario() re-runs one.
 *
 * The loop runs as a robust::CampaignRunner campaign: one shard per
 * scenario, every shard's randomness derived from its own seed, so
 * results are identical for any worker count — the repo-wide
 * determinism contract.  Shards survive worker crashes (bounded
 * retries, then quarantine), can run in forked worker processes, and
 * journal to a checkpoint so an interrupted campaign resumes with
 * `--resume` to a byte-identical summary.
 *
 * The mutation campaign (mutationsPerCase > 0) closes the loop on
 * oracle quality: after a case verifies clean, it corrupts one gate
 * of the compiled circuit (verify/mutate.h) and asserts the checker
 * rejects the corrupted circuit.  CI requires a detection rate of at
 * least 95%; in practice the full oracle catches every semantic
 * single-gate corruption.
 */

#ifndef TQAN_VERIFY_FUZZ_H
#define TQAN_VERIFY_FUZZ_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "robust/runner.h"
#include "testgen/scenario.h"
#include "verify/check.h"

namespace tqan {
namespace verify {

struct FuzzOptions
{
    int iterations = 100;
    /** Base seed; iteration i draws scenario seed + i.  The CLI
     * also reads TQAN_FUZZ_SEED. */
    std::uint64_t seed = 1;
    /** Backends to exercise (empty = every registered backend). */
    std::vector<std::string> backends;
    testgen::ScenarioOptions scenario;
    CheckOptions check;
    /** Mapping trials for the 2QAN pipeline (2 keeps fuzzing fast;
     * correctness is trial-count independent). */
    int mapperTrials = 2;
    /** Shrink failing scenarios to minimal reproducers. */
    bool shrink = true;
    /** Mutation-campaign attempts per verified case; 0 = off. */
    int mutationsPerCase = 0;
    /** Supervision: most scenario-parallel workers
     * (`campaign.workers`; results independent of the value),
     * checkpoint/resume, forked worker processes with a per-shard
     * deadline, retry budget.  `campaign.configTag` is derived from
     * these options. */
    robust::CampaignOptions campaign;
};

/** One verified-failed (scenario, backend) case. */
struct FuzzFailure
{
    std::string backend;
    std::string scenarioName;
    std::uint64_t scenarioSeed = 0;
    std::string error;
    /** Reproducer spec (shrunk when shrinking is on) +
     * backend/check metadata as comments. */
    std::string reproducer;
};

/** One skipped (scenario, backend) case: the oracle could not
 * decide (oracle-unavailable).  Neither a pass nor a failure; the
 * reason names the refusing oracle and why. */
struct FuzzSkip
{
    std::string backend;
    std::string scenarioName;
    std::uint64_t scenarioSeed = 0;
    std::string reason;
};

struct FuzzSummary
{
    int scenarios = 0;
    int cases = 0;  ///< (scenario, backend) compilations checked
    std::vector<FuzzFailure> failures;
    /** Cases the oracle declined to judge (skipped-with-reason;
     * never counted as failures OR as verified-clean). */
    int skippedCases = 0;
    std::vector<FuzzSkip> skips;
    /** Mutation campaign tallies.  A mutant whose check comes back
     * oracle-unavailable is not counted as tried: an undecided
     * oracle must not dilute (or inflate) the detection rate. */
    int mutationsTried = 0;
    int mutationsDetected = 0;
    /** Campaign supervision tallies (see robust/runner.h). */
    std::uint64_t restoredShards = 0;
    std::uint64_t retriedShards = 0;
    std::uint64_t quarantinedShards = 0;
    std::uint64_t skippedShards = 0;
    /** Stopped early (signal or stopAfter); resume to finish. */
    bool interrupted = false;

    bool ok() const { return failures.empty(); }
    double detectionRate() const
    {
        return mutationsTried == 0
                   ? 1.0
                   : static_cast<double>(mutationsDetected) /
                         mutationsTried;
    }
};

/** Run the fuzz loop; deterministic in (options, registered
 * backends). */
FuzzSummary runFuzz(const FuzzOptions &opt);

/** Compile + verify one scenario against the requested backends
 * (reproducer replay); failures come back unshrunk.  When skipsOut
 * is non-null, oracle-unavailable cases are reported there with the
 * refusing oracle named (instead of escaping as exceptions or being
 * silently dropped). */
std::vector<FuzzFailure> runScenario(
    const testgen::Scenario &s, const FuzzOptions &opt,
    std::vector<FuzzSkip> *skipsOut = nullptr);

/** Human-readable one-line summary ("500 scenarios, 2500 cases, 0
 * failures, mutation detection 100.0% (n=320)"). */
std::string summaryLine(const FuzzSummary &s);

} // namespace verify
} // namespace tqan

#endif // TQAN_VERIFY_FUZZ_H
