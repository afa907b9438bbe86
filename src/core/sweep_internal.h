/**
 * @file
 * Internals shared by the three files behind core/sweep.h:
 * sweep_spec.cpp (spec, presets, expansion), sweep.cpp (the sweep
 * campaign, row codecs, tables) and bench.cpp (the bench campaign).
 * Not part of the library's interface.
 */

#ifndef TQAN_CORE_SWEEP_INTERNAL_H
#define TQAN_CORE_SWEEP_INTERNAL_H

#include <functional>
#include <stdexcept>

#include "core/sweep.h"
#include "robust/fault.h"

namespace tqan {
namespace core {

/** Multiplier folding a sweep's base seed into every derived seed. */
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

/** Campaign identity of a spec: every knob that shapes a shard's
 * payload, so a journal can never be resumed under a different grid.
 * `kind` is "sweep" or "bench". */
std::string sweepConfigTag(const char *kind, const SweepSpec &spec);

/** Shard payload codec of each row type. */
template <class Row>
struct RowCodec;
template <>
struct RowCodec<SweepRow>
{
    static constexpr auto encode = &toJson;
    static constexpr auto decode = &sweepRowFromJson;
};
template <>
struct RowCodec<BenchRow>
{
    static constexpr auto encode = &benchRowJson;
    static constexpr auto decode = &benchRowFromJson;
};

/**
 * Run one supervised campaign phase and append one row per shard to
 * `*rows`, in shard order.  A shard's row starts as `identity(shard)`
 * and `run` fills in its result; the row travels as its JSON payload
 * and is always read back from it, fresh or restored from the
 * journal, so a resumed phase's rows equal an uninterrupted run's
 * byte for byte.  A shard that yields no payload (quarantined, or
 * skipped by an interruption) keeps its identity row with `error`
 * set.  The phase journals to `base.checkpoint` + `checkpointSuffix`
 * under the tag `base.configTag` + `tagSuffix`, on `workers` workers.
 * Folds the campaign's tallies into `*tallies`; returns false when
 * the phase was interrupted, so the caller starts no later phase.
 *
 * Fault probe: sweep.shard fires once per shard attempt.
 */
template <class Row>
bool
runCampaignPhase(const robust::CampaignOptions &base,
                 std::uint64_t shards,
                 const std::function<Row(std::uint64_t)> &identity,
                 const std::function<void(std::uint64_t, Row *)> &run,
                 const char *checkpointSuffix, const char *tagSuffix,
                 int workers, std::vector<Row> *rows,
                 CampaignTallies *tallies)
{
    robust::CampaignOptions co = base;
    if (!co.checkpoint.empty())
        co.checkpoint += checkpointSuffix;
    co.configTag += tagSuffix;
    co.workers = workers;
    robust::CampaignResult camp = robust::runCampaign(
        shards,
        [&](std::uint64_t shard, int) {
            if (robust::faultPoint("sweep.shard"))
                throw std::runtime_error(
                    "injected fault: sweep.shard");
            Row row = identity(shard);
            run(shard, &row);
            return RowCodec<Row>::encode(row);
        },
        co);

    for (std::uint64_t i = 0; i < shards; ++i) {
        if (!camp.payloads[i].empty()) {
            rows->push_back(RowCodec<Row>::decode(camp.payloads[i]));
            continue;
        }
        Row row = identity(i);
        row.error =
            camp.shards[i].state == robust::ShardState::Quarantined
                ? "quarantined: " + camp.shards[i].error
                : "skipped (campaign interrupted)";
        rows->push_back(std::move(row));
    }
    tallies->restored += camp.restored;
    tallies->retried += camp.retried;
    tallies->quarantined += camp.quarantined;
    tallies->skipped += camp.skipped;
    tallies->interrupted |= camp.interrupted;
    return !camp.interrupted;
}

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_SWEEP_INTERNAL_H
