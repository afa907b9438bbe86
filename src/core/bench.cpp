#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/sweep_internal.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "service/json.h"
#include "sim/engine.h"
#include "sim/noise.h"
#include "sim/statevector.h"
#include "simd/dispatch.h"

namespace tqan {
namespace core {

std::string
BenchRow::key() const
{
    return benchmark + "/" + device + "/" + gateset + "/" + backend +
           "/n" + std::to_string(nqubits) + "/i" +
           std::to_string(instance);
}

namespace {

/** A sim case ready to run, set up once so that timed repeats cover
 * only the simulation itself (state allocation, gates, reduction):
 * its graph and circuit, the scalar pin (held while this lives) when
 * the case asks for it, and the engine. */
class PreparedSim
{
  public:
    PreparedSim(const SimBenchCase &c, std::uint64_t baseSeed, int jobs)
        : c_(c), eng_(jobs)
    {
        if (c.n < 4 || c.n % 2 != 0)
            throw std::invalid_argument(
                "runSimCase: n must be even and >= 4 (3-regular "
                "graph)");
        if (c.layers < 1 || c.shots < 0)
            throw std::invalid_argument("runSimCase: bad layers/shots");

        // Same instance-seeding convention as the compile sweeps, so
        // a sim case and a QAOA_REG3 compile row of equal
        // (n, instance) describe the same graph.
        const std::uint64_t instSeed =
            sweepInstanceSeed(Benchmark::QaoaReg3, c.n, c.instance) +
            baseSeed * kSeedStride;
        std::mt19937_64 grng(instSeed);
        g_ = graph::randomRegularGraph(c.n, 3, grng);
        circ_ = ham::qaoaStateCircuit(g_, ham::qaoaFixedAngles(c.layers));
        trajSeed_ = instSeed ^ kSeedStride;
        if (c.forceScalar)
            force_ = std::make_unique<simd::ScopedForceIsa>(
                simd::Isa::Scalar);
    }

    double run() const
    {
        if (c_.shots > 0)
            return sim::noisyExpectationZZ(circ_, c_.n, g_.edges(), nm_,
                                           c_.shots, trajSeed_, &eng_);
        sim::Statevector psi(c_.n, &eng_);
        psi.applyCircuit(circ_);
        return psi.expectationZZ(g_.edges());
    }

  private:
    const SimBenchCase &c_;
    graph::Graph g_{1, {}};
    qcir::Circuit circ_{1};
    sim::NoiseModel nm_ = sim::montrealNoise();
    std::uint64_t trajSeed_ = 0;
    std::unique_ptr<simd::ScopedForceIsa> force_;
    sim::Engine eng_;
};

/** Median of an unsorted, non-empty sample (average of the two
 * middles for even sizes). */
double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/** Reduce a row's timed repeats (non-empty) to its median, min and
 * max wall times. */
void
setTimings(const std::vector<double> &secs, BenchRow *b)
{
    b->medianSeconds = medianOf(secs);
    auto [lo, hi] = std::minmax_element(secs.begin(), secs.end());
    b->minSeconds = *lo;
    b->maxSeconds = *hi;
}

/** Identity of a compile row: the expanded grid row's, with `suffix`
 * appended to the backend (the scalar-pinned phase's "-scalar"). */
BenchRow
compileRowIdentity(const SweepRow &meta, const char *suffix)
{
    BenchRow b;
    b.benchmark = meta.benchmark;
    b.device = meta.device;
    b.gateset = meta.gateset;
    b.backend = meta.backend + suffix;
    b.nqubits = meta.nqubits;
    b.instance = meta.instance;
    return b;
}

/** Identity of a sim-throughput row. */
BenchRow
simRowIdentity(const SimBenchCase &c)
{
    BenchRow b;
    b.benchmark = c.label;
    b.device = "simulator";
    b.gateset = "exact";
    b.backend = c.forceScalar ? "engine-scalar" : "engine";
    b.nqubits = c.n;
    b.instance = c.instance;
    return b;
}

/** Warm one job up un-timed, then time `repeat` compiles of it into
 * `*b`: wall time, per-pass medians, and the compiled circuit's
 * quality (identical across repeats; the clock is the only thing
 * that varies). */
void
timeCompile(const BatchCompiler &bc, const BatchJob &bj,
            const BenchOptions &opt, BenchRow *b)
{
    for (int w = 0; w < opt.warmup; ++w)
        bc.runOne(bj);
    std::vector<double> secs, mapping, routing, scheduling;
    CompilationMetrics quality;
    for (int r = 0; r < opt.repeat; ++r) {
        BatchJobResult res = bc.runOne(bj);
        if (!res.ok()) {
            b->error = res.error;
            continue;
        }
        secs.push_back(res.seconds);
        const auto &times = res.result.passTimes;
        mapping.push_back(passSeconds(times, "mapping"));
        routing.push_back(passSeconds(times, "routing"));
        scheduling.push_back(passSeconds(times, "scheduling"));
        quality = res.metrics;
    }
    if (!b->ok())
        return;
    setTimings(secs, b);
    b->mappingSeconds = medianOf(mapping);
    b->routingSeconds = medianOf(routing);
    b->schedulingSeconds = medianOf(scheduling);
    b->swaps = quality.swaps;
    b->depth2q = quality.depth2q;
}

/** Warm one sim case up un-timed, then time `repeat` runs into `*b`;
 * a case that cannot be built fails its row. */
void
timeSimCase(const SimBenchCase &c, std::uint64_t baseSeed, int jobs,
            const BenchOptions &opt, BenchRow *b)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> secs;
    try {
        const PreparedSim sim(c, baseSeed, jobs);
        for (int i = 0; i < opt.warmup; ++i)
            sim.run();
        for (int r = 0; r < opt.repeat; ++r) {
            auto t0 = Clock::now();
            sim.run();
            secs.push_back(
                std::chrono::duration<double>(Clock::now() - t0)
                    .count());
        }
    } catch (const std::exception &e) {
        b->error = e.what();
        return;
    }
    setTimings(secs, b);
}

} // namespace

double
runSimCase(const SimBenchCase &c, std::uint64_t baseSeed, int jobs)
{
    return PreparedSim(c, baseSeed, jobs).run();
}

BenchCampaignOutcome
runBenchCampaign(const SweepSpec &spec, const BatchCompiler &bc,
                 const BenchOptions &opt,
                 const robust::CampaignOptions &campaign)
{
    if (opt.repeat < 1)
        throw std::invalid_argument("runBench: repeat < 1");
    if (opt.warmup < 0)
        throw std::invalid_argument("runBench: warmup < 0");

    robust::CampaignOptions base = campaign;
    base.configTag = sweepConfigTag("bench", spec) + " warmup=" +
                     std::to_string(opt.warmup) + " repeat=" +
                     std::to_string(opt.repeat);
    BenchCampaignOutcome out;

    // Compile-throughput phases (skipped entirely for sim-only specs
    // like the `fidelity` preset): one shard per job.
    if (!(spec.devices.empty() && !spec.simCases.empty())) {
        ExpandedSweep ex = expandSweep(spec);
        const int workers = campaign.workers > 0 ? campaign.workers
                                                 : bc.options().jobs;
        auto compilePhase = [&](const char *suffix,
                                const char *checkpointSuffix,
                                const char *tagSuffix) {
            return runCampaignPhase<BenchRow>(
                base, ex.jobs.size(),
                [&ex, suffix](std::uint64_t shard) {
                    return compileRowIdentity(ex.rows[shard], suffix);
                },
                [&](std::uint64_t shard, BenchRow *b) {
                    timeCompile(bc, ex.jobs[shard], opt, b);
                },
                checkpointSuffix, tagSuffix, workers, &out.rows,
                &out.tallies);
        };
        if (!compilePhase("", "", " phase=compile"))
            return out;
        if (spec.simdPairedCompile) {
            // The scalar pin is process-global, so this phase must
            // not interleave with dispatched compiles.
            simd::ScopedForceIsa force(simd::Isa::Scalar);
            if (!compilePhase("-scalar", ".scalar", " phase=scalar"))
                return out;
        }
    }

    // Simulation-throughput phase, sequential (workers = 1) so the
    // timed windows never contend: the engine already runs with the
    // batch's worker count inside one shard.
    if (!spec.simCases.empty()) {
        const int jobs = std::max(1, bc.options().jobs);
        runCampaignPhase<BenchRow>(
            base, spec.simCases.size(),
            [&spec](std::uint64_t shard) {
                return simRowIdentity(spec.simCases[shard]);
            },
            [&](std::uint64_t shard, BenchRow *b) {
                timeSimCase(spec.simCases[shard], spec.seed, jobs, opt,
                            b);
            },
            ".sim", " phase=sim", 1, &out.rows, &out.tallies);
    }
    return out;
}

std::vector<BenchRow>
runBench(const SweepSpec &spec, const BatchCompiler &bc,
         const BenchOptions &opt)
{
    robust::CampaignOptions co;
    co.workers = bc.options().jobs;
    return runBenchCampaign(spec, bc, opt, co).rows;
}

std::string
benchJson(const std::string &experiment, const BenchOptions &opt,
          int jobs, const std::vector<BenchRow> &rows)
{
    std::ostringstream os;
    os << "{\"schema\":\"tqan-bench-v1\",\"experiment\":\""
       << service::jsonEscape(experiment) << "\",\"warmup\":" << opt.warmup
       << ",\"repeat\":" << opt.repeat << ",\"jobs\":" << jobs
       // ISA the run dispatched to (rows forced to scalar carry it
       // in their backend label); parseBenchJson() skips header
       // lines, so older readers are unaffected.
       << ",\"simd\":\"" << simd::activeIsaName()
       << "\",\"rows\":[\n";
    for (size_t i = 0; i < rows.size(); ++i)
        os << benchRowJson(rows[i])
           << (i + 1 < rows.size() ? "," : "") << "\n";
    os << "]}\n";
    return os.str();
}

std::string
benchRowJson(const BenchRow &b)
{
    std::ostringstream os;
    char nums[256];
    std::snprintf(nums, sizeof(nums),
                  "\"median_seconds\":%.9f,\"min_seconds\":%.9f,"
                  "\"max_seconds\":%.9f,"
                  "\"mapping_seconds\":%.9f,"
                  "\"routing_seconds\":%.9f,"
                  "\"scheduling_seconds\":%.9f",
                  b.medianSeconds, b.minSeconds, b.maxSeconds,
                  b.mappingSeconds, b.routingSeconds,
                  b.schedulingSeconds);
    os << "{\"benchmark\":\"" << service::jsonEscape(b.benchmark)
       << "\",\"device\":\"" << service::jsonEscape(b.device)
       << "\",\"gateset\":\"" << service::jsonEscape(b.gateset)
       << "\",\"compiler\":\"" << service::jsonEscape(b.backend)
       << "\",\"nqubits\":" << b.nqubits
       << ",\"instance\":" << b.instance << "," << nums
       // Quality of the compiled circuit (-1 for sim rows);
       // parseBenchJson() treats both as optional, so bench
       // files written before these fields still parse.
       << ",\"swaps\":" << b.swaps << ",\"depth2q\":" << b.depth2q
       << ",\"error\":\"" << service::jsonEscape(b.error) << "\"}";
    return os.str();
}

std::vector<BenchRegression>
compareBench(const std::vector<BenchRow> &baseline,
             const std::vector<BenchRow> &current, double tolerance,
             double minSeconds)
{
    std::map<std::string, double> base;
    for (const BenchRow &b : baseline)
        if (b.ok())
            base[b.key()] = b.medianSeconds;

    std::vector<BenchRegression> out;
    for (const BenchRow &c : current) {
        if (!c.ok())
            continue;
        auto it = base.find(c.key());
        if (it == base.end() || it->second < minSeconds)
            continue;
        double ratio = c.medianSeconds / it->second;
        if (ratio > 1.0 + tolerance)
            out.push_back(
                {c.key(), it->second, c.medianSeconds, ratio});
    }
    return out;
}

} // namespace core
} // namespace tqan
