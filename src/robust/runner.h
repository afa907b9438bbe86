/**
 * @file
 * Supervised, resumable campaign runner.
 *
 * A campaign is N independent shards, each producing a deterministic
 * payload that depends only on its shard index.  The runner executes
 * shards under supervision and aggregates payloads in shard order,
 * so the aggregate is byte-identical no matter how many workers ran,
 * in which order shards finished, or how many times the campaign was
 * killed and resumed:
 *
 *  - in-process mode runs `workers` forkJoin slots on the shared
 *    pool (core/thread_pool.h), each pulling shards from one queue:
 *    the calling thread plus up to workers - 1 pool threads, all
 *    done before runCampaign returns;
 *  - process mode (processes > 0) forks one worker process per shard
 *    attempt, so a crash costs the attempt, not the campaign, and a
 *    child that outlives the shard deadline is SIGKILLed.  Deadlines
 *    exist only here: a hung thread cannot be killed;
 *  - a failed attempt (throw, crash, deadline) is requeued with
 *    bounded retries and exponential backoff;
 *  - a shard that exhausts its retries is QUARANTINED and reported —
 *    the campaign keeps going and still returns a summary (graceful
 *    degradation, never abort);
 *  - every completed shard is journaled to an append-only checkpoint
 *    (robust/checkpoint.h) and fsynced before it counts as done, so
 *    `--resume` after a crash skips exactly the durable shards and
 *    replays their payloads verbatim.
 *
 * core/sweep (runSweep/runBench) and verify/fuzz (runFuzz) are built
 * on this; their shard functions are pure given (shard index, spec).
 *
 * Fault probe: campaign.shard fires once per shard attempt, in the
 * worker thread (in-process mode) or in the child (process mode).
 */

#ifndef TQAN_ROBUST_RUNNER_H
#define TQAN_ROBUST_RUNNER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tqan {
namespace robust {

struct CampaignOptions
{
    /** Most in-process workers, counting the calling thread; the
     * others are shared-pool threads, so never more than the
     * hardware threads run.  1 (or less) runs every shard on the
     * caller.  Ignored in process mode. */
    int workers = 1;
    /** > 0: fork one worker process per shard attempt, at most this
     * many concurrently.  A child that crashes (signal, _exit) costs
     * one attempt; the parent requeues the shard. */
    int processes = 0;
    /** Process mode only: seconds one attempt may run before its
     * child is SIGKILLed and the shard requeued.  0 = no deadline;
     * > 0 with processes == 0 makes runCampaign throw
     * std::invalid_argument. */
    double shardDeadline = 0.0;
    /** Extra attempts after the first before quarantine. */
    int retries = 2;
    /** Delay before retry k (doubled each retry). */
    double backoff = 0.05;
    /** Checkpoint journal path; "" = no journal. */
    std::string checkpoint;
    /** Load the journal and skip shards already completed.  Without
     * this an existing journal is reset, not silently merged. */
    bool resume = false;
    /** Campaign identity pinned into the journal; resuming with a
     * different tag is an error (a sweep journal must not resume a
     * fuzz campaign, nor the same campaign with a different spec). */
    std::string configTag;
    /** Testing/CI hook: stop dispatching new shards once this many
     * have completed this run (0 = off).  Simulates an interruption
     * at a deterministic point. */
    std::uint64_t stopAfter = 0;
};

enum class ShardState
{
    Done,        ///< computed this run, payload journaled
    Restored,    ///< replayed verbatim from the checkpoint
    Quarantined, ///< retries exhausted; payload empty
    Skipped      ///< never completed (interrupted); payload empty
};

struct ShardReport
{
    std::uint64_t shard = 0;
    ShardState state = ShardState::Skipped;
    int attempts = 0;
    std::string error; ///< last failure (Quarantined)
};

struct CampaignResult
{
    /** Payloads indexed by shard; "" for quarantined/skipped. */
    std::vector<std::string> payloads;
    std::vector<ShardReport> shards;
    std::uint64_t completed = 0;
    std::uint64_t restored = 0;
    std::uint64_t retried = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t skipped = 0;
    /** True when the campaign stopped before every shard resolved
     * (signal or stopAfter); skipped shards remain. */
    bool interrupted = false;

    /** Every shard has a payload (Done or Restored). */
    bool complete() const
    {
        return !interrupted && quarantined == 0 && skipped == 0;
    }

    /** One-line status for logs and CLI summaries. */
    std::string summary() const;
};

/** Shard work: return the payload for `shard`.  `attempt` is 0 for
 * the first try (tests use it to crash only the first attempt).
 * Must be deterministic in `shard` for resume byte-identity. */
using ShardFn =
    std::function<std::string(std::uint64_t shard, int attempt)>;

/** Run shards [0, shards) under supervision.
 * @throws std::invalid_argument for a shard deadline without
 *         process mode. */
CampaignResult runCampaign(std::uint64_t shards, const ShardFn &work,
                           const CampaignOptions &opt);

/** Cooperative interrupt flag (async-signal-safe setter).  A running
 * campaign finishes in-flight shards, journals them, and returns
 * with interrupted = true. */
void requestCampaignStop();
bool campaignStopRequested();
void resetCampaignStop();

/**
 * Install SIGINT/SIGTERM handlers for campaign CLIs: the first
 * signal requests a cooperative stop (the checkpoint already holds
 * every completed shard, so the CLI can print a resume hint and
 * exit kInterruptedExit); a second signal hard-exits 128+sig.
 */
void installCampaignSignalHandlers();

/** CLI exit status for an interrupted-but-resumable campaign. */
constexpr int kInterruptedExit = 5;

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_RUNNER_H
