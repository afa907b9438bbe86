/**
 * @file
 * Deterministic fault injection: named probe points at the I/O and
 * concurrency hot spots, armed by a FaultPlan.
 *
 * A plan is a comma-separated list of clauses parsed from the
 * TQAN_FAULT environment variable (or installed programmatically by
 * tests):
 *
 *   TQAN_FAULT=<site>:<nth>[:<action>][,<site>:<nth>[:<action>]...]
 *
 *   site    a registered probe name (faultSiteNames()), e.g.
 *           cache.append or ckpt.fsync
 *   nth     1-based hit count at which the clause fires, exactly
 *           once (counted per process; children count from zero
 *           after a fork)
 *   action  fail  - the probe reports an injected failure and the
 *                   caller takes its error-return path
 *           throw - the probe throws robust::InjectedFault
 *           exit  - the probe hard-exits the process via
 *                   _exit(kFaultExitCode), simulating a crash or
 *                   OOM-kill with no destructors and no flushing
 *           (default: throw)
 *
 * Example: TQAN_FAULT=ckpt.append:3:exit kills the process the
 * moment it makes its third checkpoint append.  A campaign journals
 * its config tag first, so one shard is durable and nothing else is
 * — which is how CI stages a deterministic mid-campaign SIGKILL for
 * the kill-and-resume proof.
 *
 * Probes are free when no plan is armed (one relaxed atomic load).
 * A malformed TQAN_FAULT value warns on stderr and is ignored, per
 * the core/env convention; programmatic installs throw instead.
 */

#ifndef TQAN_ROBUST_FAULT_H
#define TQAN_ROBUST_FAULT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tqan {
namespace robust {

enum class FaultAction { Fail, Throw, Exit };

struct FaultClause
{
    std::string site;
    std::uint64_t nth = 1;
    FaultAction action = FaultAction::Throw;
};

struct FaultPlan
{
    std::vector<FaultClause> clauses;
    bool empty() const { return clauses.empty(); }
};

/** Exception thrown by a probe whose clause action is `throw`. */
struct InjectedFault : std::runtime_error
{
    explicit InjectedFault(const std::string &site)
        : std::runtime_error("injected fault: " + site)
    {
    }
};

/** Exit status used by the `exit` action (distinct from every CLI
 * status so a supervisor can tell an injected crash from a real
 * failure). */
constexpr int kFaultExitCode = 86;

/** Every registered probe site, sorted (the parser rejects unknown
 * sites so a typo cannot silently disarm a plan). */
const std::vector<std::string> &faultSiteNames();

/** Parse a plan; throws std::invalid_argument on a malformed clause
 * or an unregistered site. */
FaultPlan parseFaultPlan(const std::string &text);

/** Install `plan` process-wide and reset all hit counters. */
void setFaultPlan(FaultPlan plan);

/** Disarm: remove the plan and reset all hit counters. */
void clearFaultPlan();

/** True when a plan with at least one clause is armed.  The first
 * call (or first probe) loads TQAN_FAULT if no plan was installed
 * programmatically. */
bool faultPlanArmed();

/** One-line description of the armed plan ("" when disarmed), for
 * the CLI startup warnings. */
std::string faultPlanSummary();

/**
 * The probe.  Counts one hit of `site`; when an armed clause matches
 * this hit, performs its action: Fail returns true (the caller must
 * take its error path), Throw raises InjectedFault, Exit calls
 * _exit(kFaultExitCode).  Returns false when nothing fires.
 */
bool faultPoint(const char *site);

/** Hits recorded for `site` since the counters were last reset (only
 * counted while a plan is armed). */
std::uint64_t faultHits(const std::string &site);

} // namespace robust
} // namespace tqan

#endif // TQAN_ROBUST_FAULT_H
