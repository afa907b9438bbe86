/**
 * @file
 * Campaign checkpoint: a shard -> payload view over a
 * robust::Journal (robust/journal.h holds the on-disk format, the
 * verified load and the durability contract).
 *
 * A CampaignRunner journals every completed shard here so an
 * interrupted campaign can resume without recomputing (and, because
 * shard payloads are deterministic, without changing a single output
 * byte).  Each journal record is (id = shard, blob = payload); a
 * later record for the same shard wins on load.  The magic is
 * "TQANCKv1".
 *
 * Shard id kMetaShard is reserved for the campaign tag: a digest of
 * the campaign's configuration that the runner checks on resume, so
 * a journal from a different campaign is rejected instead of quietly
 * mixing results.
 *
 * Error policy: journal errors (unopenable file, failed write or
 * fsync, oversized payload) propagate to the runner, which fails the
 * attempt.  A shard is remembered only once its record is durable.
 *
 * Fault probes: ckpt.open, ckpt.append, ckpt.fsync (see
 * robust/journal.h).
 */

#ifndef TQAN_ROBUST_CHECKPOINT_H
#define TQAN_ROBUST_CHECKPOINT_H

#include <cstdint>
#include <map>
#include <string>

#include "robust/journal.h"

namespace tqan {
namespace robust {

class Checkpoint
{
  public:
    using LoadInfo = Journal::LoadInfo;

    /** Disabled journal: enabled() is false, append() is a no-op. */
    Checkpoint() = default;

    /** Open (or create) the journal at `path`; "" = disabled. */
    explicit Checkpoint(std::string path);

    Checkpoint(const Checkpoint &) = delete;
    Checkpoint &operator=(const Checkpoint &) = delete;

    bool enabled() const { return journal_.isOpen(); }
    const std::string &path() const { return journal_.path(); }
    const LoadInfo &loadInfo() const { return journal_.loadInfo(); }

    /** Verified entries loaded on open (shard -> payload). */
    const std::map<std::uint64_t, std::string> &entries() const
    {
        return map_;
    }

    /** Journal one shard and remember it.  Returns only after the
     * entry is durable.  No-op when disabled. */
    void append(std::uint64_t shard, const std::string &payload);

    /** Truncate back to a bare header, dropping every entry (a
     * fresh, non-resumed campaign must not inherit stale shards). */
    void reset();

    static constexpr char kMagic[9] = "TQANCKv1";
    /** Reserved shard id carrying the campaign tag. */
    static constexpr std::uint64_t kMetaShard = ~0ull;

  private:
    Journal journal_{kMagic, "ckpt"};
    std::map<std::uint64_t, std::string> map_;
};

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_CHECKPOINT_H
