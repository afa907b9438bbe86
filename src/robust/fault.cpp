#include "robust/fault.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "core/env.h"

namespace tqan {
namespace robust {

namespace {

struct FaultState
{
    std::mutex mu;
    FaultPlan plan;
    /** Set once, under mu, when TQAN_FAULT is consulted or a plan
     * installed; read lock-free on the disarmed fast path. */
    std::atomic<bool> envChecked{false};
    std::unordered_map<std::string, std::uint64_t> hits;
};

FaultState &
state()
{
    static FaultState s;
    return s;
}

/** Fast-path gate: probes are one relaxed load when disarmed.  Set
 * under state().mu only. */
std::atomic<bool> gArmed{false};

FaultAction
actionByName(const std::string &name)
{
    if (name == "fail")
        return FaultAction::Fail;
    if (name == "throw")
        return FaultAction::Throw;
    if (name == "exit")
        return FaultAction::Exit;
    throw std::invalid_argument("unknown fault action '" + name +
                                "' (expected fail | throw | exit)");
}

const char *
actionName(FaultAction a)
{
    switch (a) {
    case FaultAction::Fail:
        return "fail";
    case FaultAction::Throw:
        return "throw";
    case FaultAction::Exit:
        return "exit";
    }
    return "?";
}

/** Load TQAN_FAULT once, lazily, unless a plan was installed
 * programmatically first.  Caller holds state().mu. */
void
ensureEnvLoadedLocked(FaultState &s)
{
    if (s.envChecked.load(std::memory_order_relaxed))
        return;
    s.envChecked.store(true, std::memory_order_release);
    std::string raw = core::envStringOr("TQAN_FAULT", "");
    if (raw.empty())
        return;
    try {
        s.plan = parseFaultPlan(raw);
    } catch (const std::exception &e) {
        // core/env convention: a malformed knob warns and is
        // ignored; it must never abort the run or half-apply.
        std::fprintf(stderr, "tqan: TQAN_FAULT='%s' ignored: %s\n",
                     raw.c_str(), e.what());
        s.plan.clauses.clear();
    }
    gArmed.store(!s.plan.empty(), std::memory_order_relaxed);
}

} // namespace

const std::vector<std::string> &
faultSiteNames()
{
    static const std::vector<std::string> names = {
        "batch.dispatch",  // BatchCompiler::run, per job
        "cache.append",    // CompileCache append (fail = torn write)
        "cache.fsync",     // CompileCache append fsync
        "cache.lookup",    // CompileCache lookup (fail = forced miss)
        "cache.open",      // CompileCache store read (transient)
        "campaign.shard",  // CampaignRunner, per shard attempt
        "ckpt.append",     // checkpoint append (fail = torn write)
        "ckpt.fsync",      // checkpoint append fsync
        "ckpt.open",       // checkpoint load read (transient)
        "fuzz.shard",      // runFuzz, per scenario shard
        "service.dispatch", // CompileService dispatcher, per batch
        "service.reader",  // CompileService reader, per line
        "service.writer",  // CompileService writer, per response
        "sweep.shard",     // runSweep/runBench, per shard
    };
    return names;
}

FaultPlan
parseFaultPlan(const std::string &text)
{
    FaultPlan plan;
    std::size_t at = 0;
    while (at <= text.size()) {
        std::size_t end = text.find(',', at);
        if (end == std::string::npos)
            end = text.size();
        std::string clause = text.substr(at, end - at);
        at = end + 1;
        if (clause.empty()) {
            if (end == text.size())
                break;
            throw std::invalid_argument("empty fault clause");
        }
        std::size_t c1 = clause.find(':');
        if (c1 == std::string::npos)
            throw std::invalid_argument(
                "fault clause '" + clause +
                "' is not <site>:<nth>[:<action>]");
        FaultClause fc;
        fc.site = clause.substr(0, c1);
        const auto &known = faultSiteNames();
        if (std::find(known.begin(), known.end(), fc.site) ==
            known.end())
            throw std::invalid_argument(
                "unknown fault site '" + fc.site + "'");
        std::size_t c2 = clause.find(':', c1 + 1);
        std::string nth = clause.substr(
            c1 + 1,
            (c2 == std::string::npos ? clause.size() : c2) - c1 - 1);
        if (nth.empty() ||
            nth.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument(
                "fault clause '" + clause +
                "' needs a positive integer hit count");
        fc.nth = std::stoull(nth);
        if (fc.nth == 0)
            throw std::invalid_argument(
                "fault hit count is 1-based; got 0 in '" + clause +
                "'");
        if (c2 != std::string::npos)
            fc.action = actionByName(clause.substr(c2 + 1));
        plan.clauses.push_back(std::move(fc));
        if (end == text.size())
            break;
    }
    return plan;
}

void
setFaultPlan(FaultPlan plan)
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    // A programmatic plan overrides TQAN_FAULT.
    s.envChecked.store(true, std::memory_order_release);
    s.plan = std::move(plan);
    s.hits.clear();
    gArmed.store(!s.plan.empty(), std::memory_order_relaxed);
}

void
clearFaultPlan()
{
    setFaultPlan(FaultPlan{});
}

bool
faultPlanArmed()
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    ensureEnvLoadedLocked(s);
    return !s.plan.empty();
}

std::string
faultPlanSummary()
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    ensureEnvLoadedLocked(s);
    std::string out;
    for (const auto &c : s.plan.clauses) {
        if (!out.empty())
            out += ",";
        out += c.site + ":" + std::to_string(c.nth) + ":" +
               actionName(c.action);
    }
    return out;
}

bool
faultPoint(const char *site)
{
    FaultState &s = state();
    if (!gArmed.load(std::memory_order_relaxed)) {
        // Disarmed fast path — but TQAN_FAULT may not have been
        // looked at yet.  envChecked only flips false -> true, with a
        // release store under the mutex that this acquire load pairs
        // with; seeing it clear costs one locked check.
        if (s.envChecked.load(std::memory_order_acquire))
            return false;
        std::lock_guard<std::mutex> lock(s.mu);
        ensureEnvLoadedLocked(s);
        if (s.plan.empty())
            return false;
    }
    FaultAction fired = FaultAction::Fail;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.plan.empty())
            return false;
        std::uint64_t n = ++s.hits[site];
        for (const auto &c : s.plan.clauses)
            if (c.site == site && c.nth == n) {
                hit = true;
                fired = c.action;
                break;
            }
    }
    if (!hit)
        return false;
    switch (fired) {
    case FaultAction::Fail:
        return true;
    case FaultAction::Throw:
        throw InjectedFault(site);
    case FaultAction::Exit:
        // Simulated crash: no destructors, no stream flushing, no
        // atexit — exactly what an OOM-kill leaves behind.
        std::fprintf(stderr,
                     "tqan: injected fault at %s: _exit(%d)\n", site,
                     kFaultExitCode);
        std::fflush(stderr);
        _exit(kFaultExitCode);
    }
    return false;
}

std::uint64_t
faultHits(const std::string &site)
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.hits.find(site);
    return it == s.hits.end() ? 0 : it->second;
}

} // namespace robust
} // namespace tqan
