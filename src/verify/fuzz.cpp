#include "verify/fuzz.h"

#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/backend.h"
#include "core/hash.h"
#include "device/noise_map.h"
#include "ham/trotter.h"
#include "robust/fault.h"
#include "robust/journal.h"
#include "verify/mutate.h"
#include "verify/reference.h"

namespace tqan {
namespace verify {

using testgen::Scenario;

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/**
 * Declared backend preconditions (BackendInfo): a scenario violating
 * one is routed away from the backend instead of counted as a
 * finding (matching how the sweep grid feeds diagonal-only backends
 * QAOA rows only).  Every OTHER exception a backend throws is a
 * crash-class bug.
 */
bool
backendAccepts(const std::string &backend, const Scenario &s)
{
    if (core::backendByName(backend).info().diagonalOnly)
        return s.hamiltonian->isDiagonal();
    return true;
}

core::CompileJob
jobFor(const Scenario &s, const std::string &backend,
       const FuzzOptions &opt)
{
    core::CompileJob job;
    job.step = s.step.get();
    job.hamiltonian = s.hamiltonian.get();
    job.time = s.time;
    job.options.seed = s.seed * kGolden + core::fnv1a64(backend);
    job.options.mapperTrials = opt.mapperTrials;
    if (s.withNoise) {
        // Rebuilt per call because NoiseMap references its Topology:
        // it must be anchored to THIS scenario instance (which every
        // caller keeps alive across the compile).
        std::mt19937_64 nrng(s.noiseSeed);
        job.options.noiseMap = std::make_shared<device::NoiseMap>(
            device::NoiseMap::synthetic(s.topo, nrng));
        job.options.noiseLambda = s.noiseLambda;
    }
    return job;
}

/** Outcome of one (scenario, backend) case: clean (both strings
 * empty), failed (error set), or skipped-with-reason (the oracle
 * declined to judge; skipReason names which oracle and why). */
struct CaseOutcome
{
    std::string error;
    std::string skipReason;
};

/** Compile + verify one (scenario, backend) case.  The compiled
 * result is handed back for the mutation campaign. */
CaseOutcome
checkCase(const Scenario &s, const std::string &backend,
          const FuzzOptions &opt, core::CompileResult *resOut)
{
    CaseOutcome out;
    core::CompileResult res;
    try {
        res = core::backendByName(backend).compile(
            jobFor(s, backend, opt), s.topo);
    } catch (const std::exception &e) {
        out.error = std::string("compile threw: ") + e.what();
        return out;
    }
    CompilationCheck chk;
    try {
        chk = checkCompilation(*s.step, res, opt.check);
    } catch (const std::exception &e) {
        out.error = std::string("checker threw: ") + e.what();
        return out;
    }
    if (resOut)
        *resOut = std::move(res);
    if (chk.skipped)
        out.skipReason = chk.skipReason;
    else if (!chk.ok)
        out.error = chk.error;
    return out;
}

/**
 * Greedy shrink: repeatedly drop Hamiltonian terms while the same
 * backend still fails verification, until no single removal keeps
 * the failure alive.
 */
Scenario
shrunk(const Scenario &s0, const std::string &backend,
       const FuzzOptions &opt)
{
    Scenario best = s0;
    bool progress = true;
    while (progress) {
        progress = false;
        const auto &pairs = best.hamiltonian->pairs();
        const auto &fields = best.hamiltonian->fields();
        const size_t nterms = pairs.size() + fields.size();
        for (size_t drop = 0; drop < nterms; ++drop) {
            ham::TwoLocalHamiltonian h(
                best.hamiltonian->numQubits());
            for (size_t i = 0; i < pairs.size(); ++i)
                if (i != drop)
                    h.addPair(pairs[i].u, pairs[i].v, pairs[i].xx,
                              pairs[i].yy, pairs[i].zz);
            for (size_t i = 0; i < fields.size(); ++i)
                if (pairs.size() + i != drop)
                    h.addField(fields[i].q, fields[i].axis,
                               fields[i].coeff);
            if (h.pairs().empty() && h.fields().empty())
                continue;
            Scenario cand = best;
            cand.hamiltonian =
                std::make_shared<ham::TwoLocalHamiltonian>(
                    std::move(h));
            cand.step = std::make_shared<qcir::Circuit>(
                ham::trotterStep(*cand.hamiltonian, cand.time));
            // Only a live FAILURE keeps the shrink going; a skipped
            // candidate proves nothing about the bug.
            if (!checkCase(cand, backend, opt, nullptr)
                     .error.empty()) {
                best = std::move(cand);
                progress = true;
                break;  // restart the scan on the smaller instance
            }
        }
    }
    return best;
}

FuzzFailure
madeFailure(const Scenario &s, const std::string &backend,
            const std::string &error, const FuzzOptions &opt)
{
    FuzzFailure f;
    f.backend = backend;
    f.scenarioName = s.name;
    f.scenarioSeed = s.seed;
    f.error = error;
    Scenario repro =
        opt.shrink ? shrunk(s, backend, opt) : s;
    std::ostringstream os;
    os << "# backend = " << backend << "\n";
    os << "# error = " << error << "\n";
    os << testgen::toSpec(repro);
    f.reproducer = os.str();
    return f;
}

/** Per-scenario work item result — the unit one campaign shard
 * computes, serializes, and journals. */
struct CaseResult
{
    std::vector<FuzzFailure> failures;
    std::vector<FuzzSkip> skips;
    int cases = 0;
    int skipped = 0;
    int mutTried = 0;
    int mutDetected = 0;
};

/**
 * Shard payload codec.  The summary is rebuilt from payloads alone
 * (never from in-memory results), so a resumed campaign — which
 * replays journaled payloads verbatim — aggregates byte-identically
 * to an uninterrupted one.  Versioned, length-prefixed, all integers
 * little-endian.
 */
constexpr char kPayloadMagic[] = "FZS2";

using robust::putU32;
using robust::putU64;

void
putStr(std::string &buf, const std::string &s)
{
    putU32(buf, static_cast<std::uint32_t>(s.size()));
    buf += s;
}

struct PayloadReader
{
    const std::string &buf;
    std::size_t at = 0;

    void need(std::size_t n) const
    {
        if (at + n > buf.size())
            throw std::runtime_error("fuzz shard payload truncated");
    }
    const unsigned char *take(std::size_t n)
    {
        need(n);
        at += n;
        return reinterpret_cast<const unsigned char *>(buf.data()) +
               at - n;
    }
    std::uint32_t u32() { return robust::getU32(take(4)); }
    std::uint64_t u64() { return robust::getU64(take(8)); }
    std::string str()
    {
        std::uint32_t n = u32();
        need(n);
        std::string s = buf.substr(at, n);
        at += n;
        return s;
    }
};

std::string
serializeShard(const CaseResult &r)
{
    std::string buf(kPayloadMagic, 4);
    putU32(buf, static_cast<std::uint32_t>(r.cases));
    putU32(buf, static_cast<std::uint32_t>(r.skipped));
    putU32(buf, static_cast<std::uint32_t>(r.mutTried));
    putU32(buf, static_cast<std::uint32_t>(r.mutDetected));
    putU32(buf, static_cast<std::uint32_t>(r.failures.size()));
    for (const auto &f : r.failures) {
        putStr(buf, f.backend);
        putStr(buf, f.scenarioName);
        putU64(buf, f.scenarioSeed);
        putStr(buf, f.error);
        putStr(buf, f.reproducer);
    }
    putU32(buf, static_cast<std::uint32_t>(r.skips.size()));
    for (const auto &k : r.skips) {
        putStr(buf, k.backend);
        putStr(buf, k.scenarioName);
        putU64(buf, k.scenarioSeed);
        putStr(buf, k.reason);
    }
    return buf;
}

CaseResult
parseShard(const std::string &payload)
{
    PayloadReader rd{payload};
    rd.need(4);
    if (payload.compare(0, 4, kPayloadMagic) != 0)
        throw std::runtime_error("fuzz shard payload: bad magic");
    rd.at = 4;
    CaseResult r;
    r.cases = static_cast<int>(rd.u32());
    r.skipped = static_cast<int>(rd.u32());
    r.mutTried = static_cast<int>(rd.u32());
    r.mutDetected = static_cast<int>(rd.u32());
    std::uint32_t nfail = rd.u32();
    r.failures.reserve(nfail);
    for (std::uint32_t i = 0; i < nfail; ++i) {
        FuzzFailure f;
        f.backend = rd.str();
        f.scenarioName = rd.str();
        f.scenarioSeed = rd.u64();
        f.error = rd.str();
        f.reproducer = rd.str();
        r.failures.push_back(std::move(f));
    }
    std::uint32_t nskip = rd.u32();
    r.skips.reserve(nskip);
    for (std::uint32_t i = 0; i < nskip; ++i) {
        FuzzSkip k;
        k.backend = rd.str();
        k.scenarioName = rd.str();
        k.scenarioSeed = rd.u64();
        k.reason = rd.str();
        r.skips.push_back(std::move(k));
    }
    return r;
}

/** One fuzz iteration, shared by every execution mode (inline,
 * threads, forked children).  Pure in (shard, backends, opt). */
CaseResult
fuzzShard(std::uint64_t shard,
          const std::vector<std::string> &backends,
          const FuzzOptions &opt)
{
    CaseResult slot;
    Scenario s = testgen::randomScenario(
        opt.seed + static_cast<std::uint64_t>(shard), opt.scenario);
    for (const auto &b : backends) {
        if (!backendAccepts(b, s))
            continue;
        core::CompileResult res;
        CaseOutcome outcome = checkCase(s, b, opt, &res);
        ++slot.cases;
        if (!outcome.error.empty()) {
            slot.failures.push_back(
                madeFailure(s, b, outcome.error, opt));
            continue;
        }
        if (!outcome.skipReason.empty()) {
            ++slot.skipped;
            slot.skips.push_back(
                {b, s.name, s.seed, outcome.skipReason});
            continue;
        }
        if (opt.mutationsPerCase <= 0)
            continue;

        // Mutation campaign: the checker must reject a corrupted
        // copy of this verified-clean circuit.
        UnmappedReference ref = unmapDeviceCircuit(
            res.sched.deviceCircuit, res.initialLayout(),
            s.step->numQubits());
        if (!ref.ok)
            continue;  // unreachable: the case verified
        EquivalenceChecker checker(opt.check.equivalence);
        std::mt19937_64 mrng(s.seed * kGolden + core::fnv1a64(b) +
                             0xBADC0DEULL);
        for (int m = 0; m < opt.mutationsPerCase; ++m) {
            Mutation mut;
            if (!mutateCircuit(res.sched.deviceCircuit, mrng, &mut))
                break;  // nothing mutable (e.g. 1q-only)
            EquivalenceReport rep =
                checker.check(ref.logical, mut.circuit,
                              res.initialLayout(), res.finalLayout());
            if (rep.oracleUnavailable)
                continue;  // undecided: must not shape the rate
            ++slot.mutTried;
            if (!rep.equivalent)
                ++slot.mutDetected;
        }
    }
    return slot;
}

/** Campaign identity: resuming a journal written under different
 * fuzz options would replay shards that no fresh run could produce,
 * so the tag pins every option that shapes a shard's payload. */
std::string
fuzzConfigTag(const FuzzOptions &opt,
              const std::vector<std::string> &backends)
{
    std::ostringstream os;
    os << "fuzz-v2 iter=" << opt.iterations << " seed=" << opt.seed
       << " trials=" << opt.mapperTrials
       << " mut=" << opt.mutationsPerCase
       << " shrink=" << (opt.shrink ? 1 : 0)
       << " scen=" << opt.scenario.minQubits << '-'
       << opt.scenario.maxQubits << '/'
       << opt.scenario.maxDeviceQubits << '/'
       << opt.scenario.adversarialFraction << '/'
       << (opt.scenario.cliffordOnly ? 1 : 0) << '/'
       << opt.scenario.structuredFraction << '/'
       << (opt.scenario.withNoise ? 1 : 0) << " backends=";
    for (size_t i = 0; i < backends.size(); ++i)
        os << (i ? "," : "") << backends[i];
    return os.str();
}

} // namespace

std::vector<FuzzFailure>
runScenario(const Scenario &s, const FuzzOptions &opt,
            std::vector<FuzzSkip> *skipsOut)
{
    std::vector<std::string> backends =
        opt.backends.empty() ? core::backendNames() : opt.backends;
    std::vector<FuzzFailure> out;
    for (const auto &b : backends) {
        if (!backendAccepts(b, s))
            continue;
        CaseOutcome outcome = checkCase(s, b, opt, nullptr);
        if (!outcome.error.empty()) {
            FuzzOptions noShrink = opt;
            noShrink.shrink = false;
            out.push_back(madeFailure(s, b, outcome.error, noShrink));
        } else if (!outcome.skipReason.empty() && skipsOut) {
            skipsOut->push_back(
                {b, s.name, s.seed, outcome.skipReason});
        }
    }
    return out;
}

FuzzSummary
runFuzz(const FuzzOptions &opt)
{
    std::vector<std::string> backends =
        opt.backends.empty() ? core::backendNames() : opt.backends;

    robust::CampaignOptions co = opt.campaign;
    co.workers = opt.jobs;
    co.configTag = fuzzConfigTag(opt, backends);

    robust::CampaignResult camp = robust::runCampaign(
        static_cast<std::uint64_t>(
            opt.iterations > 0 ? opt.iterations : 0),
        [&backends, &opt](std::uint64_t shard, int) {
            if (robust::faultPoint("fuzz.shard"))
                throw std::runtime_error(
                    "injected fault: fuzz.shard");
            return serializeShard(fuzzShard(shard, backends, opt));
        },
        co);

    // Aggregate from payloads only, in shard order: a restored shard
    // contributes the exact bytes its original run journaled, so
    // resumed == uninterrupted, byte for byte.
    FuzzSummary sum;
    sum.scenarios = opt.iterations;
    for (const auto &payload : camp.payloads) {
        if (payload.empty())
            continue; // quarantined or skipped
        CaseResult r = parseShard(payload);
        sum.cases += r.cases;
        sum.skippedCases += r.skipped;
        sum.mutationsTried += r.mutTried;
        sum.mutationsDetected += r.mutDetected;
        sum.failures.insert(sum.failures.end(),
                            std::make_move_iterator(
                                r.failures.begin()),
                            std::make_move_iterator(
                                r.failures.end()));
        sum.skips.insert(sum.skips.end(),
                         std::make_move_iterator(r.skips.begin()),
                         std::make_move_iterator(r.skips.end()));
    }
    sum.restoredShards = camp.restored;
    sum.retriedShards = camp.retried;
    sum.quarantinedShards = camp.quarantined;
    sum.skippedShards = camp.skipped;
    sum.interrupted = camp.interrupted;
    return sum;
}

std::string
summaryLine(const FuzzSummary &s)
{
    std::ostringstream os;
    os << s.scenarios << " scenarios, " << s.cases << " cases, "
       << s.failures.size() << " failures";
    if (s.skippedCases > 0)
        os << ", " << s.skippedCases
           << " skipped (oracle-unavailable)";
    if (s.mutationsTried > 0) {
        os.precision(1);
        os << std::fixed << ", mutation detection "
           << 100.0 * s.detectionRate() << "% (n="
           << s.mutationsTried << ")";
    }
    return os.str();
}

} // namespace verify
} // namespace tqan
