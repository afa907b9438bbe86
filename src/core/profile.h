/**
 * @file
 * Lightweight hierarchical wall-time profiling (tqanc --profile,
 * tqan-sweep --profile).
 *
 * A process-wide registry aggregates (call count, total seconds) per
 * named scope.  Scopes are coarse — one per pass, per compile job,
 * per QAP kernel invocation — so a mutex-protected map is plenty;
 * nothing here belongs inside an inner loop.
 *
 * Zero-cost when disabled: the enable flag is a relaxed atomic read,
 * and a disabled ScopedTimer neither reads the clock nor touches the
 * registry.  Thread-safe when enabled: timers on worker threads
 * (mapper trials, batch jobs) aggregate into the same table.
 *
 * Use the RAII timer for new measurements and record() to feed in
 * durations something else already measured (TqanCompiler's
 * per-stage times, the BatchCompiler's per-job times):
 *
 * @code
 *   { profile::ScopedTimer t("qap.tabu"); ... }   // measures
 *   profile::record("pass.mapping", seconds);      // adopts
 * @endcode
 */

#ifndef TQAN_CORE_PROFILE_H
#define TQAN_CORE_PROFILE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tqan {
namespace core {
namespace profile {

/** Aggregated wall time of one named scope. */
struct ScopeStats
{
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** Turn collection on or off (off at startup).  Toggling does not
 * clear previously collected stats; reset() does. */
void setEnabled(bool on);
bool enabled();

/** Drop every collected stat. */
void reset();

/** Add one sample to a scope.  No-op while disabled. */
void record(const std::string &name, double seconds);

/** Count an event without a duration (cache hits, rejected
 * requests): one call, zero seconds.  The CompileService surfaces
 * its hit/miss/reject tallies this way, so a profile snapshot holds
 * them next to the timed scopes. */
inline void
count(const std::string &name)
{
    record(name, 0.0);
}

/** All collected stats, sorted by name (deterministic for tests). */
std::vector<ScopeStats> snapshot();

/** Human-readable table, heaviest scope first; "" when nothing was
 * collected. */
std::string report();

/** RAII wall-clock scope.  Decides at construction: when profiling
 * is off it never reads the clock, when on it records the scope's
 * lifetime into the registry on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
        : name_(name), active_(enabled())
    {
        if (active_)
            t0_ = std::chrono::steady_clock::now();
    }

    /** Times the scope under label(base), resolving the name only
     * when profiling is on (label interns or builds it, as
     * simd::profileLabel does; off, nothing is called). */
    ScopedTimer(const char *(*label)(const char *), const char *base)
        : name_(nullptr), active_(enabled())
    {
        if (active_) {
            name_ = label(base);
            t0_ = std::chrono::steady_clock::now();
        }
    }

    ~ScopedTimer()
    {
        if (active_)
            record(name_,
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0_)
                       .count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *name_;
    std::chrono::steady_clock::time_point t0_;
    bool active_;
};

} // namespace profile
} // namespace core
} // namespace tqan

#endif // TQAN_CORE_PROFILE_H
