/**
 * @file
 * tqan-perfbench -- end-to-end and per-layer benchmark of libtqan.
 *
 *   tqan-perfbench --workload paper|device_scale|service --seed N
 *                  --seconds S --trace 0|1 [--workdir DIR]
 *
 * Every workload is generated from --seed; libtqan only ever sees
 * Hamiltonian text (paper, device_scale) or request lines (service).
 * One line per metric (name, value, unit) is printed, then, as the
 * last line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}.  With --trace 0 "metrics" holds the end-to-end metrics
 * of BENCHMARK.json.  With --trace 1 untraced and traced passes
 * alternate, the tracing overhead is printed, and "metrics" holds
 * the per-layer metrics.  Exit status: 0 when every output checked
 * out, 1 when a check failed, 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/batch.h"
#include "core/hash.h"
#include "core/sweep.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "harness.h"
#include "qcir/qasm.h"
#include "service/cache.h"
#include "service/json.h"
#include "service/service.h"
#include "service_loop.h"
#include "simd/dispatch.h"
#include "testgen/random_topology.h"

using namespace tqan;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The per-layer metrics of BENCHMARK.json, in its order.  A layer a
 * workload never calls reads 0 there. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"ham.parse_ms", "ms"},          {"device.topology_ms", "ms"},
    {"ham.trotter_ms", "ms"},        {"core.compile_ms", "ms"},
    {"core.unify_ms", "ms"},         {"qap.mapping_ms", "ms"},
    {"route.routing_ms", "ms"},      {"core.scheduling_ms", "ms"},
    {"core.metrics_ms", "ms"},       {"decomp.synth_ms", "ms"},
    {"qcir.qasm_ms", "ms"},          {"core.batch_compile_ms", "ms"},
    {"service.json_ms", "ms"},       {"service.request_ms", "ms"},
    {"service.key_ms", "ms"},        {"service.lookup_ms", "ms"},
    {"service.insert_ms", "ms"},     {"service.open_ms", "ms"},
    {"service.wait_ms", "ms"},       {"pass.wall_ms", "ms"},
    {"qcir.step_ops", "count"},      {"qcir.device_ops", "count"},
    {"qcir.native_ops", "count"},    {"qcir.qasm_bytes", "bytes"},
    {"device.qubits", "count"},      {"service.hit_ratio", "ratio"},
    {"service.rejected", "count"},   {"service.expired", "count"},
    {"service.response_bytes", "bytes"},
};

/** What a run found, whichever workload produced it. */
struct Report
{
    std::vector<Metric> endToEnd;  ///< BENCHMARK.json end_to_end
    std::vector<Metric> layers;    ///< BENCHMARK.json per_layer
    std::vector<Metric> printed;   ///< extra named metrics, text only
    long attempted = 0;
    long failed = 0;
    std::string firstError;

    void fail(const std::string &what)
    {
        ++failed;
        if (firstError.empty())
            firstError = what;
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir = ".bench_build/perfbench-work";
};

/** Bring-up repetitions behind setup_s (its median is reported): at
 * least kSetupMinReps and one second, at most kSetupMaxReps. */
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 51;

/** Median over the traced passes of every per-layer value, plus the
 * once-per-invocation verification pass. */
void
reportLayers(Report &rep, const std::vector<Trace> &traces,
             const VerifyTally &vt, double overheadPct)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        std::vector<double> v;
        for (const Trace &t : traces) {
            auto it = t.values.find(name);
            v.push_back(it == t.values.end() ? 0.0 : it->second);
        }
        rep.layers.push_back({name, v.empty() ? 0.0 : median(v), unit});
    }
    rep.layers.push_back({"verify.check_ms", vt.ms, "ms"});
    rep.layers.push_back({"verify.checked", double(vt.checked), "count"});
    rep.layers.push_back({"verify.skipped", double(vt.skipped), "count"});
    rep.layers.push_back({"trace.overhead_pct", overheadPct, "%"});
}

void
reportVerify(Report &rep, const VerifyTally &vt)
{
    std::printf("verify: %d passed, %d skipped (oracle-unavailable), "
                "%d failed, %.1f ms\n",
                vt.checked, vt.skipped, vt.failed, vt.ms);
    rep.attempted += vt.checked + vt.skipped + vt.failed;
    for (int i = 0; i < vt.failed; ++i)
        rep.fail("checkCompilation: " + vt.firstError);
}

// ---------------------------------------------------------------- compile

Report
runCompileWorkload(const std::vector<CompileInput> &inputs,
                   const Args &args)
{
    Report rep;
    std::set<std::string> devices, backends;
    for (const CompileInput &in : inputs) {
        devices.insert(in.device);
        backends.insert(in.backend);
    }

    // Bring-up of a long-lived compile process: SIMD dispatch, the
    // backend registry and each target device of the workload.
    SpeedScale scale;
    std::vector<double> setup, factors;
    std::size_t keep = 0;
    Clock::time_point setupStart = Clock::now();
    for (int k = 0; k < kSetupMaxReps &&
                    (k < kSetupMinReps || msSince(setupStart) < 1e3);
         ++k) {
        const double f = scale.factor();
        Clock::time_point t0 = Clock::now();
        keep += simd::dispatchSummary().size();
        for (const std::string &be : backends)
            keep += core::backendByName(be).name().size();
        for (const std::string &d : devices)
            keep += testgen::topologyFromSpec(d).numQubits();
        setup.push_back(msSince(t0) * f / 1e3);
    }
    if (keep == 0)
        rep.fail("empty bring-up");
    std::printf("setup: %zu bring-ups, median %.6f s, min %.6f s, max "
                "%.6f s\n",
                setup.size(), median(setup),
                *std::min_element(setup.begin(), setup.end()),
                *std::max_element(setup.begin(), setup.end()));

    // Timed passes over the fixed compile set.  The first pass also
    // records the reference quality columns and verifies every
    // distinct compile once, outside the timed spans.  Traced runs
    // alternate untraced (even) and traced (odd) passes so drift hits
    // both sides alike.
    std::vector<Quality> ref;
    VerifyTally vt;
    long swaps = 0, depth2q = 0, native2q = 0;
    std::vector<double> lat[2], busy[2];
    std::vector<Trace> traces;
    const int minPasses = args.trace ? 2 : 1;
    double measuredMs = 0.0;
    for (int pass = 0; pass < minPasses || measuredMs < args.seconds * 1e3;
         ++pass) {
        const int traced = args.trace && pass % 2 == 1;
        Trace tr;
        double passMs = 0.0, rawPassMs = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            ++rep.attempted;
            const double f = scale.factor();
            Clock::time_point t0 = Clock::now();
            CompileOutput out =
                compileToQasm(inputs[i], traced ? &tr : nullptr);
            const double raw = msSince(t0);
            factors.push_back(f);
            lat[traced].push_back(raw * f);
            passMs += raw * f;
            rawPassMs += raw;
            std::string err =
                checkOutput(out.qasm, out.hwGates, out.topo);
            Quality q = qualityOf(out.metrics, out.qasm);
            if (pass == 0) {
                ref.push_back(q);
                swaps += out.metrics.swaps;
                depth2q += out.metrics.depth2q;
                native2q += out.metrics.native2q;
                verifyCompile(inputs[i].label, out.step, out.result, vt);
            } else if (err.empty() && q != ref[i]) {
                err = "quality columns differ from the first pass";
            }
            if (!err.empty())
                rep.fail(inputs[i].label + ": " + err);
        }
        if (pass == 0)
            reportVerify(rep, vt);
        measuredMs += rawPassMs;
        busy[traced].push_back(passMs);
        if (traced) {
            tr.add("pass.wall_ms", rawPassMs);
            traces.push_back(std::move(tr));
        }
    }

    auto e2e = [&](int side) {
        double total = 0.0;
        for (double ms : busy[side])
            total += ms;
        return std::vector<Metric>{
            {"setup_s", median(setup), "s"},
            {"latency_ms_mid", midMean(lat[side]), "ms"},
            {"latency_ms_p90", percentile(lat[side], 0.90), "ms"},
            {"throughput_per_s",
             double(lat[side].size()) / (total / 1e3), "1/s"},
            {"swaps_total", double(swaps), "count"},
            {"depth2q_total", double(depth2q), "count"},
            {"native2q_total", double(native2q), "count"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    };
    rep.endToEnd = e2e(0);
    std::printf("speed factor (reference / measured speed): median "
                "%.3f, min %.3f, max %.3f\n",
                median(factors),
                *std::min_element(factors.begin(), factors.end()),
                *std::max_element(factors.begin(), factors.end()));
    std::printf("compiles: %zu distinct, %zu timed untraced", inputs.size(),
                lat[0].size());
    if (args.trace)
        std::printf(", %zu timed traced", lat[1].size());
    std::printf("\n");
    // The compile path's own names, in the text output only.
    rep.printed = {
        {"compile_ms_p50", percentile(lat[0], 0.50), "ms"},
        {"compile_ms_p99", percentile(lat[0], 0.99), "ms"},
        {"compiles_per_s", rep.endToEnd[3].value, "1/s"},
    };
    if (args.trace) {
        std::vector<Metric> tracedE2e = e2e(1);
        double overhead =
            (median(busy[1]) / median(busy[0]) - 1.0) * 100.0;
        for (std::size_t k = 1; k <= 3; ++k)
            std::printf("trace overhead: %-18s untraced %.4f  traced "
                        "%.4f %s\n",
                        rep.endToEnd[k].name.c_str(),
                        rep.endToEnd[k].value, tracedE2e[k].value,
                        rep.endToEnd[k].unit.c_str());
        std::printf("trace overhead: pass wall %+.2f%% (median traced "
                    "vs untraced pass)\n",
                    overhead);
        reportLayers(rep, traces, vt, overhead);
    }
    return rep;
}

// ---------------------------------------------------------------- service

/** One distinct request of the service workload. */
struct Distinct
{
    CompileInput in;
    std::string gatesetName;
    bool prepopulated = false;
    Quality quality;
    std::string qasm;
};

/** Families at 20-200 qubits on five devices, most popular first:
 * small devices are the common traffic, the 256-qubit grid the rare
 * one.  Each base yields two distinct requests that differ only in
 * the compile seed: one compiled into the cache before the run, one
 * left for the run to compile. */
struct ServiceBase
{
    core::Benchmark family;
    int n;
    const char *device;
    const char *gateset;
};

const ServiceBase kServiceBases[] = {
    {core::Benchmark::NnnHeisenberg, 20, "montreal", "cnot"},
    {core::Benchmark::QaoaReg3, 20, "montreal", "cnot"},
    {core::Benchmark::NnnXY, 26, "montreal", "cnot"},
    {core::Benchmark::NnnIsing, 24, "montreal", "cnot"},
    {core::Benchmark::NnnHeisenberg, 50, "sycamore", "syc"},
    {core::Benchmark::QaoaReg3, 40, "sycamore", "syc"},
    {core::Benchmark::NnnXY, 40, "sycamore", "syc"},
    {core::Benchmark::NnnHeisenberg, 100, "grid:10x10", "cz"},
    {core::Benchmark::QaoaReg3, 60, "grid:10x10", "cz"},
    {core::Benchmark::NnnIsing, 80, "grid:10x10", "cz"},
    {core::Benchmark::NnnHeisenberg, 150, "heavyhex:9", "cnot"},
    {core::Benchmark::QaoaReg3, 100, "heavyhex:9", "cnot"},
    {core::Benchmark::NnnHeisenberg, 200, "grid:16x16", "cz"},
    {core::Benchmark::QaoaReg3, 120, "grid:16x16", "cz"},
};

/** Requests per episode, and the closed loop's shape (both the
 * window and the pool stay within a 4-core machine). */
constexpr int kEpisodeRequests = 240;
constexpr int kWindow = 4;
constexpr int kPoolJobs = 2;

/** The distinct requests are those of base seed 0 whatever the run's
 * seed (which orders the stream): drawn per seed, the few large
 * instances moved depth2q_total by 45% across five seeds. */
std::vector<Distinct>
serviceDistinct()
{
    std::vector<Distinct> out;
    for (const ServiceBase &b : kServiceBases) {
        core::SweepUnit u = core::buildSweepUnit(b.family, b.n, 0, 0);
        std::string text = ham::formatHamiltonian(*u.hamiltonian);
        for (int variant = 0; variant < 2; ++variant) {
            Distinct d;
            d.in.label = core::benchmarkName(b.family) + "/" + b.device +
                         "/2qan/n" + std::to_string(b.n) + "/v" +
                         std::to_string(variant);
            d.in.hamText = text;
            d.in.device = b.device;
            d.in.gateset = device::gateSetByName(b.gateset);
            d.in.backend = "2qan";
            d.in.seed =
                core::sweepCompileSeed(b.family, b.n, 0, "2qan", 0) +
                variant;
            d.gatesetName = b.gateset;
            d.prepopulated = variant == 0;
            out.push_back(std::move(d));
        }
    }
    return out;
}

std::string
requestLine(const Distinct &d, const std::string &id)
{
    return "{\"type\":\"compile\",\"id\":\"" + id + "\",\"ham\":\"" +
           service::jsonEscape(d.in.hamText) + "\",\"device\":\"" +
           d.in.device + "\",\"gateset\":\"" + d.gatesetName +
           "\",\"backend\":\"2qan\",\"seed\":" +
           std::to_string(d.in.seed) + "}";
}

/** One episode's stream: every distinct request once plus its Zipf(1)
 * share of the rest (a base's two requests share its rank).  The
 * composition is fixed, so every episode does the same work; the
 * seed and the episode only set the order. */
std::vector<int>
episodeStream(std::size_t distinct, std::uint64_t seed, int episode)
{
    std::vector<double> w;
    double sum = 0.0;
    for (std::size_t d = 0; d < distinct; ++d) {
        w.push_back(1.0 / double(d / 2 + 1));
        sum += w.back();
    }
    const double extra = double(kEpisodeRequests) - double(distinct);
    std::vector<int> s;
    for (std::size_t d = 0; d < distinct; ++d)
        s.insert(s.end(), 1 + int(extra * w[d] / sum), int(d));
    std::mt19937_64 rng(core::fnv1a64("service-stream") ^
                        (seed * 1000003ull + episode));
    std::shuffle(s.begin(), s.end(), rng);
    return s;
}

std::string
fieldText(const service::JsonObject &o, const char *key)
{
    auto it = o.find(key);
    return it == o.end() ? std::string() : it->second.text;
}

/** Replay one episode's requests, in order, through the public
 * functions CompileService calls, against a harness-owned cache
 * opened from `journal`; adds each layer's busy time to `tr`.  The
 * measured latency minus the replayed service time is the request's
 * wait (queueing and head-of-line blocking). */
void
replayEpisode(const std::vector<std::string> &lines,
              const LoopResult &lr, const std::string &journal,
              Trace &tr)
{
    auto cache = timed(&tr, "service.open_ms", [&] {
        return std::make_unique<service::CompileCache>(journal);
    });
    core::BatchCompiler bc(core::BatchOptions{1});
    for (std::size_t k = 0; k < lines.size(); ++k) {
        Trace one;
        auto obj = timed(&one, "service.json_ms", [&] {
            return service::parseJsonObject(lines[k]);
        });
        auto req = timed(&one, "service.request_ms", [&] {
            return service::CompileService::parseCompileRequest(obj);
        });
        auto h = timed(&one, "ham.parse_ms",
                       [&] { return ham::parseHamiltonian(req.ham); });
        auto topo = timed(&one, "device.topology_ms", [&] {
            return testgen::topologyFromSpec(req.device);
        });
        device::GateSet gs = device::gateSetByName(req.gateset);
        auto step = timed(&one, "ham.trotter_ms",
                          [&] { return ham::trotterStep(h, req.time); });
        std::string canonical = timed(&one, "service.key_ms", [&] {
            return service::CompileService::canonicalRequest(req, topo);
        });
        std::uint64_t key = core::fnv1a64(canonical);
        std::string payload;
        bool hit = timed(&one, "service.lookup_ms", [&] {
            return cache->lookup(key, canonical, &payload);
        });
        tr.add("device.qubits", topo.numQubits());
        if (!hit) {
            core::BatchJob bj;
            bj.backend = req.backend;
            bj.topo = &topo;
            bj.gateset = gs;
            bj.job.step = &step;
            bj.job.hamiltonian = &h;
            bj.job.time = req.time;
            bj.job.options = req.options;
            core::BatchJobResult r =
                timed(&one, "core.batch_compile_ms",
                      [&] { return bc.runOne(bj); });
            if (!r.ok())
                throw std::runtime_error("replay compile: " + r.error);
            qcir::Circuit hw = timed(&one, "decomp.synth_ms", [&] {
                return gs == device::GateSet::Cz
                           ? decomp::decomposeToCz(
                                 r.result.sched.deviceCircuit)
                           : decomp::decomposeToCnot(
                                 r.result.sched.deviceCircuit);
            });
            std::string qasm = timed(&one, "qcir.qasm_ms",
                                     [&] { return qcir::toQasm(hw); });
            // The response line stands in for the service's payload:
            // same QASM, same size class.
            timed(&one, "service.insert_ms", [&] {
                cache->insert(key, canonical, lr.responses[k]);
                return 0;
            });
            addPassTimes(tr, r.result);
            tr.add("qcir.step_ops", step.size());
            tr.add("qcir.device_ops", r.result.sched.deviceCircuit.size());
            tr.add("qcir.native_ops", hw.size());
            tr.add("qcir.qasm_bytes", double(qasm.size()));
        }
        double serviceMs = 0.0;
        for (const auto &[name, ms] : one.values) {
            serviceMs += ms;
            tr.add(name, ms);
        }
        tr.add("service.wait_ms",
               std::max(0.0, lr.latencyMs[k] - serviceMs));
    }
}

Report
runServiceWorkload(const Args &args)
{
    Report rep;
    fs::create_directories(args.workdir);
    const std::string prepPath = args.workdir + "/prepared.tqancache";
    const std::string epPath = args.workdir + "/episode.tqancache";
    const std::string replayPath = args.workdir + "/replay.tqancache";
    fs::remove(prepPath);

    // Untimed preparation: every distinct request compiled once
    // through the public functions (the reference every response is
    // compared with, verified once), and half of them compiled into
    // the persistent cache file the service will open.
    std::vector<Distinct> distinct = serviceDistinct();
    VerifyTally vt;
    long swaps = 0, depth2q = 0, native2q = 0;
    for (Distinct &d : distinct) {
        ++rep.attempted;
        CompileOutput out = compileToQasm(d.in, nullptr);
        std::string err = checkOutput(out.qasm, out.hwGates, out.topo);
        if (!err.empty())
            rep.fail(d.in.label + ": " + err);
        d.quality = qualityOf(out.metrics, out.qasm);
        d.qasm = std::move(out.qasm);
        swaps += out.metrics.swaps;
        depth2q += out.metrics.depth2q;
        native2q += out.metrics.native2q;
        verifyCompile(d.in.label, out.step, out.result, vt);
    }
    reportVerify(rep, vt);
    {
        service::ServiceOptions opt;
        opt.cachePath = prepPath;
        service::CompileService prep(opt);
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            if (!distinct[i].prepopulated)
                continue;
            ++rep.attempted;
            auto o = service::parseJsonObject(
                prep.handleLine(requestLine(distinct[i], "prep")));
            if (fieldText(o, "status") != "ok" ||
                fieldText(o, "qasm") != distinct[i].qasm)
                rep.fail(distinct[i].in.label +
                         ": service answer differs from the direct "
                         "compile");
        }
    }

    std::vector<double> setup, all[2], hits, misses, wall[2];
    long responses[2] = {0, 0};
    long hitCount = 0, served = 0;
    std::vector<Trace> traces;
    SpeedScale scale;
    std::vector<double> factors;
    double measuredMs = 0.0;
    const int minEpisodes = args.trace ? 2 : 1;
    for (int ep = 0; ep < minEpisodes || measuredMs < args.seconds * 1e3;
         ++ep) {
        const int traced = args.trace && ep % 2 == 1;
        std::vector<int> stream =
            episodeStream(distinct.size(), args.seed, ep);
        std::vector<std::string> lines;
        for (std::size_t k = 0; k < stream.size(); ++k)
            lines.push_back(
                requestLine(distinct[stream[k]], std::to_string(k)));

        fs::copy_file(prepPath, epPath,
                      fs::copy_options::overwrite_existing);
        service::ServiceOptions opt;
        opt.jobs = kPoolJobs;
        opt.cachePath = epPath;
        LoopResult lr;
        const double f = scale.factor();
        factors.push_back(f);
        {
            Clock::time_point t0 = Clock::now();
            service::CompileService svc(opt);
            setup.push_back(msSince(t0) * f / 1e3);
            lr = runClosedLoop(svc, lines, kWindow);
        }
        measuredMs += lr.wallMs;

        Trace tr;
        long epHits = 0, rejected = 0, expired = 0, bytes = 0;
        for (std::size_t k = 0; k < lines.size(); ++k) {
            ++rep.attempted;
            const Distinct &d = distinct[stream[k]];
            bytes += long(lr.responses[k].size());
            service::JsonObject o;
            try {
                o = service::parseJsonObject(lr.responses[k]);
            } catch (const std::exception &e) {
                rep.fail(d.in.label + ": unparsable response: " +
                         e.what());
                continue;
            }
            std::string status = fieldText(o, "status");
            rejected += status == "rejected";
            expired += status == "expired";
            bool hit = fieldText(o, "cache") == "hit";
            if (status != "ok" || fieldText(o, "id") != std::to_string(k)) {
                rep.fail(d.in.label + ": status " + status + " " +
                         fieldText(o, "error"));
                continue;
            }
            Quality q{std::atoi(fieldText(o, "swaps").c_str()),
                      std::atoi(fieldText(o, "depth2q").c_str()),
                      std::atoi(fieldText(o, "native2q").c_str()),
                      core::fnv1a64(fieldText(o, "qasm"))};
            if (q != d.quality)
                rep.fail(d.in.label + ": response differs from the "
                                      "verified reference compile");
            all[traced].push_back(lr.latencyMs[k] * f);
            if (!traced)
                (hit ? hits : misses).push_back(lr.latencyMs[k] * f);
            epHits += hit;
        }
        hitCount += epHits;
        served += long(lines.size());
        responses[traced] += long(lines.size());
        wall[traced].push_back(lr.wallMs * f);

        if (traced) {
            fs::copy_file(prepPath, replayPath,
                          fs::copy_options::overwrite_existing);
            replayEpisode(lines, lr, replayPath, tr);
            tr.add("pass.wall_ms", lr.wallMs);
            tr.add("service.hit_ratio", double(epHits) / lines.size());
            tr.add("service.rejected", double(rejected));
            tr.add("service.expired", double(expired));
            tr.add("service.response_bytes", double(bytes));
            traces.push_back(std::move(tr));
        }
    }
    fs::remove(prepPath);
    fs::remove(epPath);
    fs::remove(replayPath);

    auto e2e = [&](int side) {
        double total = 0.0;
        for (double ms : wall[side])
            total += ms;
        return std::vector<Metric>{
            {"setup_s", median(setup), "s"},
            {"latency_ms_mid", midMean(all[side]), "ms"},
            {"latency_ms_p90", percentile(all[side], 0.90), "ms"},
            {"throughput_per_s", double(responses[side]) / (total / 1e3),
             "1/s"},
            {"swaps_total", double(swaps), "count"},
            {"depth2q_total", double(depth2q), "count"},
            {"native2q_total", double(native2q), "count"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    };
    rep.endToEnd = e2e(0);
    std::printf("speed factor (reference / measured speed): median "
                "%.3f, min %.3f, max %.3f\n",
                median(factors),
                *std::min_element(factors.begin(), factors.end()),
                *std::max_element(factors.begin(), factors.end()));
    std::printf("requests: %ld over %zu episodes, hit ratio %.4f "
                "(%zu hits, %zu misses untraced)\n",
                served, setup.size(), double(hitCount) / served,
                hits.size(), misses.size());
    rep.printed = {
        {"hit_ms_p50", hits.empty() ? 0.0 : percentile(hits, 0.50), "ms"},
        {"hit_ms_p99", hits.empty() ? 0.0 : percentile(hits, 0.99), "ms"},
        {"miss_ms_p50", misses.empty() ? 0.0 : percentile(misses, 0.50),
         "ms"},
        {"requests_per_s", rep.endToEnd[3].value, "1/s"},
    };
    if (args.trace) {
        std::vector<Metric> tracedE2e = e2e(1);
        double overhead =
            (median(wall[1]) / median(wall[0]) - 1.0) * 100.0;
        for (std::size_t k = 1; k <= 3; ++k)
            std::printf("trace overhead: %-18s untraced %.4f  traced "
                        "%.4f %s\n",
                        rep.endToEnd[k].name.c_str(),
                        rep.endToEnd[k].value, tracedE2e[k].value,
                        rep.endToEnd[k].unit.c_str());
        std::printf("trace overhead: episode wall %+.2f%% (the replay "
                    "runs after the closed loop)\n",
                    overhead);
        reportLayers(rep, traces, vt, overhead);
    }
    return rep;
}

// ---------------------------------------------------------------- output

void
printJson(const Report &rep, bool trace)
{
    const std::vector<Metric> &ms = trace ? rep.layers : rep.endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                rep.failed == 0 ? "true" : "false", rep.attempted,
                rep.failed);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tqan-perfbench: %s\nusage: tqan-perfbench --workload "
                 "paper|device_scale|service --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            if (!service::parseU64(v, &a.seed))
                usage("--seed must be a non-negative integer");
            haveSeed = true;
        } else if (k == "--seconds") {
            if (!service::parseF64(v, &a.seconds) || a.seconds <= 0)
                usage("--seconds must be a positive number");
            haveSeconds = true;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
            haveTrace = true;
        } else if (k == "--workdir") {
            a.workdir = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload != "paper" && a.workload != "device_scale" &&
        a.workload != "service")
        usage("--workload must be paper, device_scale or service");
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Report rep;
    try {
        if (args.workload == "paper")
            rep = runCompileWorkload(paperWorkload(args.seed), args);
        else if (args.workload == "device_scale")
            rep = runCompileWorkload(deviceScaleWorkload(args.seed), args);
        else
            rep = runServiceWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tqan-perfbench: error: %s\n", e.what());
        return 1;
    }

    std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0);
    for (const auto *list : {&rep.endToEnd, &rep.printed})
        for (const Metric &m : *list)
            std::printf("metric %-20s %14.6f %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
    std::printf("metric %-20s %14.6f ratio\n", "error_frac",
                double(rep.failed) / double(rep.attempted));
    if (args.trace)
        for (const Metric &m : rep.layers)
            std::printf("layer  %-24s %14.6f %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
    if (!rep.firstError.empty())
        std::printf("first failure: %s\n", rep.firstError.c_str());
    printJson(rep, args.trace);
    return rep.failed == 0 ? 0 : 1;
}
