/**
 * @file
 * Retrying POSIX I/O primitives behind robust::Journal (the compile
 * cache's store and the campaign checkpoint) and the runner's pipes.
 *
 * Durability on this codepath means three things: (1) every write is
 * a write-all loop that survives EINTR and short writes, (2) an
 * append is only acknowledged after fsync, and (3) reads retry
 * transient failures (EINTR/EAGAIN, or an injected fault) with
 * exponential backoff before giving up.  Every retry is counted in
 * the process-wide tally below and in the `robust.io.retry` profile
 * counter, and the service surfaces the tally in `{"type":"stats"}`
 * — a store that quietly retries its way through flaky I/O should
 * still be visible to an operator.
 */

#ifndef TQAN_ROBUST_IO_H
#define TQAN_ROBUST_IO_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace tqan {
namespace robust {

/** Transient-failure retries performed by any helper in this header
 * since process start (monotonic; also counted per-retry under the
 * `robust.io.retry` profile scope). */
std::uint64_t ioRetries();

/** Attempts made per read before a transient failure is treated as
 * persistent (so at most kIoRetryLimit - 1 retries). */
constexpr int kIoRetryLimit = 4;

/**
 * Read the whole file at `path` into `*out`.  Returns false when the
 * file does not exist.  Transient failures — EINTR/EAGAIN, a short
 * read that shrinks under us, or an injected failure at `faultSite`
 * (see robust/fault.h; pass nullptr for no probe) — are retried with
 * exponential backoff up to kIoRetryLimit attempts; persistent
 * failure throws std::runtime_error.  When `retries` is non-null the
 * number of retries this call performed is added to it.
 */
bool readFileRetry(const std::string &path, std::string *out,
                   const char *faultSite,
                   std::uint64_t *retries = nullptr);

/** Write all `n` bytes to `fd`, retrying EINTR and short writes.
 * Throws std::runtime_error on a persistent error. */
void writeAll(int fd, const char *data, std::size_t n);

/** fsync `fd`, retrying EINTR.  Throws std::runtime_error when the
 * kernel reports the data could not be made durable. */
void fsyncRetry(int fd);

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_IO_H
