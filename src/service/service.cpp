#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/hash.h"
#include "core/profile.h"
#include "core/router_registry.h"
#include "robust/fault.h"
#include "robust/io.h"
#include "decomp/pass.h"
#include "device/noise_map.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qap/mapper.h"
#include "qcir/qasm.h"
#include "testgen/random_topology.h"

namespace tqan {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

/** A request line larger than this is hostile, not a workload. */
constexpr std::size_t kMaxLineBytes = std::size_t(16) << 20;

/** Latency ring size for the p50/p99 estimates. */
constexpr std::size_t kLatWindow = 4096;

/** Topology memo bounds: a service sees a few devices.  Larger
 * devices are rebuilt per request rather than pinned, and a full
 * memo is cleared before the next insert. */
constexpr std::size_t kTopologyMemoSpecs = 16;
constexpr int kTopologyMemoMaxQubits = 1024;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** Exact, reversible canonical form of a double: its bit pattern.
 * Textual formatting would round, and a rounded key could collide
 * two different times/lambdas. */
std::string
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

std::string
keyHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** Every CompilerOptions field that can change an output, exactly
 * once, in a fixed order.  `jobs` is left out: trial workers never
 * change a placement, and keying on a machine-dependent default
 * would split one compile across cache entries.
 * tests/service/test_cache_key.cpp asserts (a) mutating any other
 * field changes the key, (b) mutating jobs does not, and (c) the
 * struct layout is the one this list was written for — adding a
 * CompilerOptions field without extending this function fails
 * loudly there. */
void
appendCanonicalOptions(std::string &s,
                       const core::CompilerOptions &o, int nqubits)
{
    s += "options-v4\n";
    s += "mapper=" + o.mapper + "\n";
    s += "mapper_trials=" + std::to_string(o.mapperTrials) + "\n";
    s += "unify_circuit=" + std::to_string(o.unifyCircuit ? 1 : 0) +
         "\n";
    s += "hybrid_schedule=" +
         std::to_string(o.hybridSchedule ? 1 : 0) + "\n";
    s += "router.name=" + o.router.name + "\n";
    s += "router.unify_swaps=" +
         std::to_string(o.router.unifySwaps ? 1 : 0) + "\n";
    s += "tabu.max_iters=" + std::to_string(o.tabu.maxIters) + "\n";
    s += "tabu.low_mul=" + std::to_string(o.tabu.tabuLowMul) + "\n";
    s += "tabu.high_mul=" + std::to_string(o.tabu.tabuHighMul) + "\n";
    s += "tabu.stall_limit=" + std::to_string(o.tabu.stallLimit) +
         "\n";
    s += "noise_lambda=" + doubleBits(o.noiseLambda) + "\n";
    if (!o.noiseMap) {
        s += "noise_map=none\n";
    } else {
        s += "noise_map=edges:";
        for (double e : o.noiseMap->edgeErrors())
            s += doubleBits(e) + ",";
        s += ";readout:";
        for (int q = 0; q < nqubits; ++q)
            s += doubleBits(o.noiseMap->readoutError(q)) + ",";
        s += "\n";
    }
    s += "seed=" + std::to_string(o.seed) + "\n";
}

const JsonValue *
field(const JsonObject &obj, const std::string &key)
{
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

std::string
stringField(const JsonObject &obj, const std::string &key,
            const std::string &fallback)
{
    const JsonValue *v = field(obj, key);
    if (!v)
        return fallback;
    if (v->kind != JsonValue::Kind::String)
        throw std::invalid_argument("field \"" + key +
                                    "\" must be a string");
    return v->text;
}

bool
boolField(const JsonObject &obj, const std::string &key,
          bool fallback)
{
    const JsonValue *v = field(obj, key);
    if (!v)
        return fallback;
    if (v->kind != JsonValue::Kind::Bool)
        throw std::invalid_argument("field \"" + key +
                                    "\" must be true or false");
    return v->boolean;
}

int
intField(const JsonObject &obj, const std::string &key, int fallback,
         int minValue)
{
    const JsonValue *v = field(obj, key);
    if (!v)
        return fallback;
    int out = 0;
    if (v->kind != JsonValue::Kind::Number ||
        !parseI32(v->text, &out) || out < minValue)
        throw std::invalid_argument(
            "field \"" + key + "\" must be an integer >= " +
            std::to_string(minValue));
    return out;
}

double
doubleField(const JsonObject &obj, const std::string &key,
            double fallback, double minValue)
{
    const JsonValue *v = field(obj, key);
    if (!v)
        return fallback;
    double out = 0.0;
    if (v->kind != JsonValue::Kind::Number ||
        !parseF64(v->text, &out) || out < minValue)
        throw std::invalid_argument(
            "field \"" + key + "\" must be a finite number >= " +
            std::to_string(minValue));
    return out;
}

std::uint64_t
u64Field(const JsonObject &obj, const std::string &key,
         std::uint64_t fallback)
{
    const JsonValue *v = field(obj, key);
    if (!v)
        return fallback;
    std::uint64_t out = 0;
    if (v->kind != JsonValue::Kind::Number ||
        !parseU64(v->text, &out))
        throw std::invalid_argument(
            "field \"" + key +
            "\" must be a non-negative integer");
    return out;
}

} // namespace

/** One compile request: keyed by keyRequest(), and on a miss
 * prepared by prepare() into the inputs the BatchJob's non-owning
 * pointers reference. */
struct CompileService::Prepared
{
    CompileRequest req;
    std::shared_ptr<const device::Topology> topo;
    device::GateSet gs = device::GateSet::Cnot;
    std::uint64_t key = 0;
    std::string canonical;
    ham::TwoLocalHamiltonian h{0};  ///< prepare() only
    qcir::Circuit step;             ///< prepare() only
};

struct CompileService::Admission
{
    Clock::time_point t0;
    std::string response;            ///< unless `miss` is set
    std::unique_ptr<Prepared> miss;  ///< a prepared cache miss
    bool shutdown = false;
};

struct CompileService::Slot
{
    bool done = false;
    std::string response;
};

CompileService::CompileService(ServiceOptions opt)
    : opt_(std::move(opt)), bc_({opt_.jobs < 1 ? 1 : opt_.jobs}),
      cache_(opt_.cachePath)
{
    if (opt_.jobs < 1)
        opt_.jobs = 1;
    if (opt_.maxQueue < 1)
        opt_.maxQueue = 1;
    latMs_.reserve(kLatWindow);
}

CompileService::~CompileService() = default;

std::string
CompileService::canonicalRequest(const CompileRequest &req,
                                 const device::Topology &topo)
{
    // Hits skip the Hamiltonian parse: only successful compiles are
    // inserted, so a key can only hit on `ham` text this build's
    // parser accepted.  That holds only while this tag changes
    // whenever the parser's accepted input changes — bump it then.
    // v2: the parser rejects junk-tailed numbers and surplus tokens.
    std::string s = "tqan-compile-v2\n";
    s += "backend=" + req.backend + "\n";
    s += "device=" + topo.name() + ":" +
         std::to_string(topo.numQubits()) + ":";
    for (const auto &e : topo.edges())
        s += std::to_string(e.first) + "-" +
             std::to_string(e.second) + ",";
    s += "\n";
    s += "gateset=" +
         device::gateSetName(device::gateSetByName(req.gateset)) +
         "\n";
    s += "time=" + doubleBits(req.time) + "\n";
    s += "ham:" + std::to_string(req.ham.size()) + ":" + req.ham +
         "\n";
    appendCanonicalOptions(s, req.options, topo.numQubits());
    return s;
}

std::uint64_t
CompileService::cacheKey(const CompileRequest &req,
                         const device::Topology &topo)
{
    return core::fnv1a64(canonicalRequest(req, topo));
}

CompileRequest
CompileService::parseCompileRequest(const JsonObject &obj)
{
    static const char *known[] = {
        "type",          "id",           "ham",
        "device",        "gateset",      "backend",
        "time",          "seed",         "trials",
        "jobs",          "mapper",       "router",
        "unify_circuit",
        "unify_swaps",   "hybrid_schedule", "noise_aware",
        "noise_lambda",  "tabu_max_iters",  "tabu_low_mul",
        "tabu_high_mul", "tabu_stall_limit", "deadline_ms",
    };
    for (const auto &[key, value] : obj) {
        (void)value;
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok)
            throw std::invalid_argument("unknown field \"" + key +
                                        "\"");
    }

    CompileRequest req;
    req.id = stringField(obj, "id", "");
    req.ham = stringField(obj, "ham", "");
    if (req.ham.empty())
        throw std::invalid_argument(
            "field \"ham\" (Hamiltonian text) is required");
    req.device = stringField(obj, "device", req.device);
    req.gateset = stringField(obj, "gateset", req.gateset);
    req.backend = stringField(obj, "backend", req.backend);
    req.time = doubleField(obj, "time", req.time,
                           -1.0e300 /* any finite value */);
    req.deadlineMs = doubleField(obj, "deadline_ms", 0.0, 0.0);
    req.noiseAware = boolField(obj, "noise_aware", false);

    core::CompilerOptions &o = req.options;
    o.seed = u64Field(obj, "seed", o.seed);
    o.mapperTrials = intField(obj, "trials", o.mapperTrials, 1);
    o.jobs = intField(obj, "jobs", o.jobs, 0);
    o.mapper = stringField(obj, "mapper", o.mapper);
    qap::mapperByName(o.mapper);  // reject unknowns up front
    o.router.name = stringField(obj, "router", o.router.name);
    core::routerByName(o.router.name);  // reject unknowns up front
    o.unifyCircuit =
        boolField(obj, "unify_circuit", o.unifyCircuit);
    o.router.unifySwaps =
        boolField(obj, "unify_swaps", o.router.unifySwaps);
    o.hybridSchedule =
        boolField(obj, "hybrid_schedule", o.hybridSchedule);
    o.noiseLambda =
        doubleField(obj, "noise_lambda", o.noiseLambda, 0.0);
    o.tabu.maxIters =
        intField(obj, "tabu_max_iters", o.tabu.maxIters, 1);
    o.tabu.tabuLowMul =
        intField(obj, "tabu_low_mul", o.tabu.tabuLowMul, 0);
    o.tabu.tabuHighMul =
        intField(obj, "tabu_high_mul", o.tabu.tabuHighMul, 0);
    o.tabu.stallLimit =
        intField(obj, "tabu_stall_limit", o.tabu.stallLimit, 1);
    return req;
}

std::shared_ptr<const device::Topology>
CompileService::topology(const std::string &spec)
{
    {
        std::lock_guard<std::mutex> lock(topoMu_);
        auto it = topos_.find(spec);
        if (it != topos_.end())
            return it->second;
    }
    auto topo = std::make_shared<const device::Topology>(
        testgen::topologyFromSpec(spec));
    if (topo->numQubits() <= kTopologyMemoMaxQubits) {
        std::lock_guard<std::mutex> lock(topoMu_);
        if (topos_.size() >= kTopologyMemoSpecs)
            topos_.clear();
        topos_.emplace(spec, topo);
    }
    return topo;
}

std::unique_ptr<CompileService::Prepared>
CompileService::keyRequest(CompileRequest req)
{
    auto p = std::make_unique<Prepared>();
    p->topo = topology(req.device);
    p->gs = device::gateSetByName(req.gateset);
    core::backendByName(req.backend);  // reject unknowns up front
    p->req = std::move(req);
    if (p->req.noiseAware) {
        // The NoiseMap keeps a pointer to its topology; p->topo
        // keeps that one alive for the compile.
        p->req.options.noiseMap = device::syntheticCalibration(
            *p->topo, p->req.options.seed);
    }
    p->canonical = canonicalRequest(p->req, *p->topo);
    p->key = core::fnv1a64(p->canonical);
    return p;
}

void
CompileService::prepare(Prepared &p)
{
    p.h = ham::parseHamiltonian(p.req.ham);
    p.step = ham::trotterStep(p.h, p.req.time);
}

core::BatchJob
CompileService::makeBatchJob(const Prepared &p) const
{
    core::BatchJob bj;
    bj.backend = p.req.backend;
    bj.topo = p.topo.get();
    bj.gateset = p.gs;
    bj.job.step = &p.step;
    bj.job.hamiltonian = &p.h;
    bj.job.time = p.req.time;
    bj.job.options = p.req.options;
    bj.tag = p.req.id;
    return bj;
}

std::string
CompileService::compilePayload(const Prepared &p) const
{
    return payloadFromResult(p, bc_.runOne(makeBatchJob(p)));
}

std::string
CompileService::payloadFromResult(const Prepared &p,
                                  const core::BatchJobResult &r) const
{
    if (!r.ok())
        throw std::runtime_error(r.error);
    core::profile::record("service.compile", r.seconds);

    // The decomposed QASM `tqanc --qasm` would print for the same
    // inputs (CZ target for the CZ gate set, CNOT otherwise).
    qcir::Circuit hw =
        p.gs == device::GateSet::Cz
            ? decomp::decomposeToCz(r.result.sched.deviceCircuit)
            : decomp::decomposeToCnot(r.result.sched.deviceCircuit);
    std::string qasm = qcir::toQasm(hw);

    const core::CompilationMetrics &m = r.metrics;
    std::string s;
    s += "\"backend\":\"" + jsonEscape(p.req.backend) + "\"";
    s += ",\"device\":\"" + jsonEscape(p.topo->name()) + "\"";
    s += ",\"gateset\":\"" + device::gateSetName(p.gs) + "\"";
    s += ",\"nqubits\":" + std::to_string(p.h.numQubits());
    s += ",\"swaps\":" + std::to_string(m.swaps);
    s += ",\"dressed\":" + std::to_string(m.dressed);
    s += ",\"native2q\":" + std::to_string(m.native2q);
    s += ",\"native2q_nomap\":" + std::to_string(m.native2qNoMap);
    s += ",\"depth2q\":" + std::to_string(m.depth2q);
    s += ",\"depth2q_nomap\":" + std::to_string(m.depth2qNoMap);
    s += ",\"depth_all\":" + std::to_string(m.depthAll);
    s += ",\"depth_all_nomap\":" + std::to_string(m.depthAllNoMap);
    s += ",\"qasm\":\"" + jsonEscape(qasm) + "\"";
    return s;
}

std::string
CompileService::okResponse(const std::string &id, bool hit,
                           std::uint64_t key,
                           const std::string &payload) const
{
    return "{\"id\":\"" + jsonEscape(id) +
           "\",\"status\":\"ok\",\"cache\":\"" +
           (hit ? "hit" : "miss") + "\",\"key\":\"" + keyHex(key) +
           "\"," + payload + "}";
}

std::string
CompileService::errorResponse(const std::string &id,
                              const std::string &status,
                              const std::string &what)
{
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        if (status == "error")
            ++st_.errors;
        else if (status == "rejected")
            ++st_.rejected;
        else if (status == "expired")
            ++st_.expired;
    }
    core::profile::count("service." + status);
    return "{\"id\":\"" + jsonEscape(id) + "\",\"status\":\"" +
           status + "\",\"error\":\"" + jsonEscape(what) + "\"}";
}

std::string
CompileService::statsResponse(const std::string &id) const
{
    ServiceStats s = stats();
    char num[64];
    std::string out = "{\"id\":\"" + jsonEscape(id) +
                      "\",\"status\":\"ok\",\"type\":\"stats\"";
    auto u64 = [&](const char *k, std::uint64_t v) {
        out += std::string(",\"") + k +
               "\":" + std::to_string(v);
    };
    u64("requests", s.requests);
    u64("hits", s.hits);
    u64("misses", s.misses);
    std::snprintf(num, sizeof(num), "%.4f", s.hitRate());
    out += std::string(",\"hit_rate\":") + num;
    u64("errors", s.errors);
    u64("rejected", s.rejected);
    u64("expired", s.expired);
    u64("queue_depth", s.queueDepth);
    u64("cache_entries", s.cacheEntries);
    u64("io_retries", s.ioRetries);
    std::snprintf(num, sizeof(num), "%.3f", s.p50Ms);
    out += std::string(",\"p50_ms\":") + num;
    std::snprintf(num, sizeof(num), "%.3f", s.p99Ms);
    out += std::string(",\"p99_ms\":") + num;
    out += "}";
    return out;
}

void
CompileService::recordLatency(double seconds, bool hit)
{
    double ms = seconds * 1e3;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        if (hit)
            ++st_.hits;
        else
            ++st_.misses;
        if (latMs_.size() < kLatWindow)
            latMs_.push_back(ms);
        else
            latMs_[latNext_ % kLatWindow] = ms;
        ++latNext_;
    }
    core::profile::record(hit ? "service.cache.hit"
                              : "service.cache.miss",
                          seconds);
}

ServiceStats
CompileService::stats() const
{
    ServiceStats s;
    std::vector<double> lat;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s = st_;
        lat = latMs_;
    }
    s.cacheEntries = cache_.size();
    s.ioRetries = robust::ioRetries();
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        auto pct = [&](double p) {
            std::size_t idx = static_cast<std::size_t>(
                p * static_cast<double>(lat.size() - 1) + 0.5);
            return lat[std::min(idx, lat.size() - 1)];
        };
        s.p50Ms = pct(0.50);
        s.p99Ms = pct(0.99);
    }
    return s;
}

CompileService::Admission
CompileService::admit(const std::string &line)
{
    Admission a;
    a.t0 = Clock::now();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++st_.requests;
    }
    core::profile::count("service.request");

    std::string id;
    try {
        if (line.size() > kMaxLineBytes)
            throw std::invalid_argument(
                "request line exceeds " +
                std::to_string(kMaxLineBytes) + " bytes");
        JsonObject obj = parseJsonObject(line);
        id = stringField(obj, "id", "");
        // An injected reader fault costs exactly this request (it
        // becomes an error response), never the loop.
        if (robust::faultPoint("service.reader"))
            throw std::runtime_error(
                "injected fault: service.reader");
        std::string type = stringField(obj, "type", "");
        if (type == "stats") {
            a.response = statsResponse(id);
            return a;
        }
        if (type == "shutdown") {
            a.response = "{\"id\":\"" + jsonEscape(id) +
                         "\",\"status\":\"ok\",\"type\":"
                         "\"shutdown\"}";
            a.shutdown = true;
            return a;
        }
        if (type != "compile")
            throw std::invalid_argument(
                "field \"type\" must be compile | stats | "
                "shutdown");

        std::unique_ptr<Prepared> p =
            keyRequest(parseCompileRequest(obj));
        std::string payload;
        if (cache_.lookup(p->key, p->canonical, &payload)) {
            // Warm path: no parse, no Trotter step, no queue.
            recordLatency(msSince(a.t0) / 1e3, true);
            a.response = okResponse(p->req.id, true, p->key, payload);
            return a;
        }
        prepare(*p);
        a.miss = std::move(p);
    } catch (const std::exception &e) {
        a.response = errorResponse(id, "error", e.what());
    }
    return a;
}

std::string
CompileService::handleLine(const std::string &line)
{
    Admission a = admit(line);
    if (!a.miss)
        return a.response;
    const Prepared &p = *a.miss;
    try {
        std::string payload = compilePayload(p);
        cache_.insert(p.key, p.canonical, payload);
        recordLatency(msSince(a.t0) / 1e3, false);
        return okResponse(p.req.id, false, p.key, payload);
    } catch (const std::exception &e) {
        return errorResponse(p.req.id, "error", e.what());
    }
}

void
CompileService::serve(std::istream &in, std::ostream &out)
{
    struct PendingItem
    {
        std::shared_ptr<Slot> slot;
        std::unique_ptr<Prepared> prep;
        Clock::time_point admitted;
        double deadlineMs = 0.0;  // resolved; 0 = none
    };

    std::mutex mu;
    std::condition_variable pendingCv, doneCv;
    std::deque<std::shared_ptr<Slot>> order;
    std::deque<PendingItem> pending;
    bool eof = false;

    auto complete = [&](const std::shared_ptr<Slot> &slot,
                        std::string resp) {
        {
            std::lock_guard<std::mutex> lock(mu);
            slot->response = std::move(resp);
            slot->done = true;
        }
        doneCv.notify_all();
    };

    std::size_t batchMax =
        static_cast<std::size_t>(opt_.jobs < 1 ? 1 : opt_.jobs);

    std::thread dispatcher([&]() {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            pendingCv.wait(lock, [&]() {
                return !pending.empty() || eof;
            });
            if (pending.empty()) {
                if (eof)
                    return;
                continue;
            }
            std::vector<PendingItem> batch;
            std::size_t take =
                std::min(pending.size(), batchMax);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(pending.front()));
                pending.pop_front();
            }
            {
                std::lock_guard<std::mutex> slock(statsMu_);
                st_.queueDepth = pending.size();
            }
            lock.unlock();

            // Partition the batch: expired deadlines answer
            // immediately, and a request whose twin completed while
            // it queued is now a hit — only the rest compile, as
            // ONE BatchCompiler batch.
            std::vector<PendingItem *> toCompile;
            for (PendingItem &item : batch) {
                double waited = msSince(item.admitted);
                if (item.deadlineMs > 0.0 &&
                    waited >= item.deadlineMs) {
                    complete(item.slot,
                             errorResponse(
                                 item.prep->req.id, "expired",
                                 "deadline of " +
                                     std::to_string(
                                         item.deadlineMs) +
                                     " ms exceeded in queue"));
                    continue;
                }
                std::string payload;
                if (cache_.lookup(item.prep->key,
                                  item.prep->canonical,
                                  &payload)) {
                    recordLatency(waited / 1e3, true);
                    complete(item.slot,
                             okResponse(item.prep->req.id, true,
                                        item.prep->key, payload));
                    continue;
                }
                toCompile.push_back(&item);
            }
            if (!toCompile.empty()) {
                // An injected dispatch fault costs this batch (each
                // item answers with an error), not the dispatcher
                // thread — the daemon keeps serving.
                bool dropped = false;
                std::string why;
                try {
                    if (robust::faultPoint("service.dispatch")) {
                        dropped = true;
                        why = "injected fault: service.dispatch";
                    }
                } catch (const std::exception &e) {
                    dropped = true;
                    why = e.what();
                }
                if (dropped) {
                    for (PendingItem *item : toCompile)
                        complete(item->slot,
                                 errorResponse(item->prep->req.id,
                                               "error", why));
                    lock.lock();
                    continue;
                }
                std::vector<core::BatchJob> jobs;
                jobs.reserve(toCompile.size());
                for (PendingItem *item : toCompile)
                    jobs.push_back(makeBatchJob(*item->prep));
                std::vector<core::BatchJobResult> results =
                    bc_.run(jobs);
                for (std::size_t i = 0; i < toCompile.size(); ++i) {
                    PendingItem *item = toCompile[i];
                    try {
                        std::string payload = payloadFromResult(
                            *item->prep, results[i]);
                        cache_.insert(item->prep->key,
                                      item->prep->canonical,
                                      payload);
                        recordLatency(
                            msSince(item->admitted) / 1e3, false);
                        complete(item->slot,
                                 okResponse(item->prep->req.id,
                                            false, item->prep->key,
                                            payload));
                    } catch (const std::exception &e) {
                        complete(item->slot,
                                 errorResponse(item->prep->req.id,
                                               "error", e.what()));
                    }
                }
            }
            lock.lock();
        }
    });

    std::thread writer([&]() {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            doneCv.wait(lock, [&]() {
                return (!order.empty() && order.front()->done) ||
                       (eof && order.empty());
            });
            while (!order.empty() && order.front()->done) {
                std::string resp =
                    std::move(order.front()->response);
                order.pop_front();
                lock.unlock();
                // A writer fault is a transient stream hiccup:
                // absorbed here (counted, response still written)
                // so an in-order reply is never dropped.
                bool hiccup = false;
                try {
                    hiccup = robust::faultPoint("service.writer");
                } catch (const std::exception &) {
                    hiccup = true;
                }
                if (hiccup)
                    core::profile::count("service.writer.retry");
                out << resp << '\n';
                out.flush();
                lock.lock();
            }
            if (eof && order.empty())
                return;
        }
    });

    std::string line;
    bool shuttingDown = false;
    while (!shuttingDown && std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        auto slot = std::make_shared<Slot>();
        Admission a = admit(line);
        shuttingDown = a.shutdown;
        {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(slot);
            if (!a.miss) {
                slot->response = std::move(a.response);
                slot->done = true;
            } else if (pending.size() >= opt_.maxQueue) {
                slot->response = errorResponse(
                    a.miss->req.id, "rejected",
                    "admission queue full (" +
                        std::to_string(opt_.maxQueue) + " pending)");
                slot->done = true;
            } else {
                double deadlineMs = a.miss->req.deadlineMs > 0.0
                                        ? a.miss->req.deadlineMs
                                        : opt_.defaultDeadlineMs;
                pending.push_back(PendingItem{
                    slot, std::move(a.miss), a.t0, deadlineMs});
                std::lock_guard<std::mutex> slock(statsMu_);
                st_.queueDepth = pending.size();
            }
        }
        pendingCv.notify_one();
        doneCv.notify_all();
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        eof = true;
    }
    pendingCv.notify_all();
    doneCv.notify_all();
    dispatcher.join();
    doneCv.notify_all();
    writer.join();
    {
        std::lock_guard<std::mutex> slock(statsMu_);
        st_.queueDepth = 0;
    }
}

} // namespace service
} // namespace tqan
