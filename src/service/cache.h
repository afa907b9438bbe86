/**
 * @file
 * Content-addressed compile cache: a key -> (request, payload) view
 * over a robust::Journal (robust/journal.h holds the on-disk format,
 * the verified load and the durability contract).
 *
 * The CompileService keys each compile result by the FNV-1a hash of
 * its canonicalized request (service.h); this class holds the
 * key -> (request, payload) map and, when given a path, persists it
 * across restarts.  Each journal record is
 *
 *   id    key
 *   blob  u32 reqLen (LE), reqLen request bytes, payload bytes
 *
 * under the magic "TQANCSv2".  A later record for the same key wins
 * on load.  Content addressing is checked twice: a record whose key
 * is not fnv1a64(request) ends the load like a checksum failure, and
 * lookup compares the stored request bytes, not just the key, so a
 * collision can miss but never serve another request's payload.  A
 * store in the older "TQANCSv1" layout opens as rebuilt (empty, fresh
 * header); its entries recompile to the same bytes.
 *
 * Error policy: the cache keeps serving.  A store that cannot be
 * opened degrades to in-memory only; a failed, refused (over the
 * journal's blob cap) or unsynced append keeps that entry in memory
 * only, and any torn tail is dropped on the next open.
 *
 * Fault probes: cache.open, cache.append, cache.fsync (see
 * robust/journal.h), and cache.lookup (fail = forced miss; the entry
 * recompiles and re-inserts identically).
 *
 * Thread-safe: one mutex guards the map and the journal.
 */

#ifndef TQAN_SERVICE_CACHE_H
#define TQAN_SERVICE_CACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "robust/journal.h"

namespace tqan {
namespace service {

class CompileCache
{
  public:
    /** Load tallies of the most recent open (for --stats and the
     * corruption tests). */
    using LoadInfo = robust::Journal::LoadInfo;

    /** Empty path = in-memory only.  Opening loads the verified
     * prefix of an existing store, truncates any corrupt tail, and
     * leaves the file ready for appends. */
    explicit CompileCache(std::string path = "");

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /** Payload for `key`, but only if the stored request bytes equal
     * `request` (content addressing, not trust-the-hash). */
    bool lookup(std::uint64_t key, const std::string &request,
                std::string *payload);

    /** Record a result; appends to the store when one is attached.
     * Re-inserting an identical entry is a no-op (no duplicate
     * appends after a reload). */
    void insert(std::uint64_t key, const std::string &request,
                const std::string &payload);

    std::size_t size() const;
    const std::string &path() const { return journal_.path(); }
    const LoadInfo &loadInfo() const { return journal_.loadInfo(); }

    /** Journal magic of the current store layout. */
    static constexpr char kMagic[9] = "TQANCSv2";

  private:
    struct Entry
    {
        std::string request;
        std::string payload;
    };

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry> map_;
    robust::Journal journal_{kMagic, "cache"};
};

} // namespace service
} // namespace tqan

#endif // TQAN_SERVICE_CACHE_H
