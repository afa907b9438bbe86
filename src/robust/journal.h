/**
 * @file
 * Append-only verified log: the one copy of the on-disk mechanics
 * behind the compile cache (service/cache.h) and the campaign
 * checkpoint (robust/checkpoint.h).
 *
 * The format follows the c-blosc2 super-chunk discipline
 * (append-only persisted records, verify on open, drop the torn
 * tail):
 *
 *   header  8 B magic (names the view and its version),
 *           u32 format version (1), u32 reserved (0)
 *   record  u64 id, u32 len,
 *           u64 checksum = fnv1a64(id LE bytes || blob),
 *           len blob bytes
 *
 * All integers little-endian.  The checksum binds each blob to its
 * id, so a record can never be re-attributed by flipping the id
 * field.
 *
 * The file is UNTRUSTED on open.  A foreign magic/version (or a torn
 * header) rebuilds the journal empty with a fresh header.  Otherwise
 * records are verified in order, and the first one that is short,
 * longer than the blob cap, fails its checksum, or is refused by the
 * view's onEntry callback ends the load: the file is truncated back
 * to the verified prefix (or, when truncate fails, the prefix is
 * rewritten), so a torn append from a crash can never resurface.
 *
 * Durability: append() writes the whole record (write-all,
 * EINTR-safe) and fsyncs before returning; once it returns, the
 * record survives SIGKILL.  A blob over the cap is refused before a
 * byte is written.  Loads ride the retrying reader in robust/io.h.
 *
 * Fault probes, for a journal opened with site S: S.open (transient
 * load failure, retried), S.append (fail = torn half-written
 * record), S.fsync (record written but not acknowledged).
 *
 * Errors throw std::runtime_error; the views choose the policy.  Not
 * thread-safe: the owning view serializes access.
 */

#ifndef TQAN_ROBUST_JOURNAL_H
#define TQAN_ROBUST_JOURNAL_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tqan {
namespace robust {

/** Little-endian integer codec (journal records, the runner's
 * child-result frames, fuzz shard payloads). */
void putU32(std::string &buf, std::uint32_t v);
void putU64(std::string &buf, std::uint64_t v);
std::uint32_t getU32(const unsigned char *p);
std::uint64_t getU64(const unsigned char *p);

class Journal
{
  public:
    /** Load tallies of the most recent open (or reset). */
    struct LoadInfo
    {
        std::uint64_t loadedEntries = 0;
        /** Bytes dropped from an unverifiable tail (0 on a clean
         * open; the header of a rebuilt file does not count). */
        std::uint64_t droppedBytes = 0;
        /** True when the header was missing/foreign and the journal
         * was rebuilt empty. */
        bool rebuilt = false;
        /** Transient-read retries the load performed. */
        std::uint64_t retries = 0;
    };

    /** Called once per verified record, in file order; returning
     * false rejects the record and ends the load there. */
    using OnEntry =
        std::function<bool(std::uint64_t id, std::string_view blob)>;

    /** Cap on one blob: a corrupt length field must not drive a
     * giant allocation, and append() refuses what load would. */
    static constexpr std::uint32_t kMaxBlob = 1u << 28;

    /** A closed journal.  `magic` is exactly 8 bytes; `site`
     * prefixes the fault probes. */
    Journal(std::string magic, const std::string &site);
    ~Journal();
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Open (or create) the journal at `path`: replay the verified
     * prefix through `onEntry`, drop the rest, and leave the file
     * ready for appends.  Throws when the file cannot be read or
     * opened for append (the journal then stays closed). */
    void open(const std::string &path, const OnEntry &onEntry);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }
    const LoadInfo &loadInfo() const { return load_; }

    /** Write one record and fsync it.  Throws when the write or
     * fsync fails, and, with nothing written, when `blob` exceeds the
     * cap. */
    void append(std::uint64_t id, std::string_view blob);

    /** Truncate back to a bare header, dropping every record. */
    void reset();

  private:
    void writeHeader(int fd) const;

    std::string magic_;
    std::string openSite_, appendSite_, fsyncSite_;
    std::string path_;
    LoadInfo load_;
    int fd_ = -1;
};

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_JOURNAL_H
