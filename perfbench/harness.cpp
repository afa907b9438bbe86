#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "core/backend.h"
#include "core/hash.h"
#include "core/sweep.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qcir/qasm.h"
#include "testgen/random_topology.h"
#include "verify/check.h"

using namespace tqan;

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

void
addPassTimes(Trace &trace, const core::CompileResult &res)
{
    static const std::pair<const char *, const char *> kLayers[] = {
        {"unify", "core.unify_ms"},
        {"mapping", "qap.mapping_ms"},
        {"routing", "route.routing_ms"},
        {"scheduling", "core.scheduling_ms"},
    };
    for (const auto &[pass, layer] : kLayers)
        trace.add(layer, core::passSeconds(res.passTimes, pass) * 1e3);
}

namespace {

std::string
jobLabel(core::Benchmark b, const std::string &device,
         const std::string &backend, int n, int instance)
{
    return core::benchmarkName(b) + "/" + device + "/" + backend +
           "/n" + std::to_string(n) + "/i" + std::to_string(instance);
}

} // namespace

std::vector<CompileInput>
paperWorkload(std::uint64_t seed)
{
    // The table1_table2 preset's grid (core/sweep.cpp), 2qan rows
    // only, in its job order: units, then devices.
    const std::vector<std::string> devices = {"sycamore", "aspen",
                                              "montreal"};
    std::vector<device::Topology> topos;
    for (const auto &d : devices)
        topos.push_back(device::deviceByName(d));

    std::vector<CompileInput> out;
    for (core::Benchmark b : core::allBenchmarks()) {
        std::vector<int> sizes = core::chainSizes(50);
        int instances = 1;
        if (b == core::Benchmark::NnnIsing)
            sizes = core::chainSizes(40);
        if (b == core::Benchmark::QaoaReg3) {
            sizes = core::qaoaSizes(22);
            instances = 5;
        }
        for (int n : sizes) {
            for (int inst = 0; inst < instances; ++inst) {
                core::SweepUnit u =
                    core::buildSweepUnit(b, n, inst, seed);
                std::string text =
                    ham::formatHamiltonian(*u.hamiltonian);
                for (std::size_t d = 0; d < devices.size(); ++d) {
                    if (n > topos[d].numQubits())
                        continue;
                    CompileInput in;
                    in.label = jobLabel(b, topos[d].name(), "2qan", n,
                                        inst);
                    in.hamText = text;
                    in.device = devices[d];
                    in.gateset = device::defaultGateSet(devices[d]);
                    in.backend = "2qan";
                    in.seed = core::sweepCompileSeed(b, n, inst, "2qan",
                                                     seed);
                    out.push_back(std::move(in));
                }
            }
        }
    }
    return out;
}

std::vector<CompileInput>
deviceScaleWorkload(std::uint64_t seed)
{
    // The instances are those of base seed 0 whatever the seed: at
    // this scale one instance moves the quality totals by up to 20%
    // and peak memory by 2x (measured over five seeds), which would
    // swamp any change under test.  The seed only orders the compiles.
    std::vector<CompileInput> out;
    for (const char *dev :
         {"grid:16x16", "heavyhex:9", "grid:23x23", "heavyhex:15"}) {
        device::Topology topo = device::deviceByName(dev);
        // Fill the device; 3-regular graphs need an even size.
        int n = topo.numQubits() & ~1;
        for (core::Benchmark b : {core::Benchmark::NnnHeisenberg,
                                  core::Benchmark::QaoaReg3}) {
            core::SweepUnit u = core::buildSweepUnit(b, n, 0, 0);
            std::string text = ham::formatHamiltonian(*u.hamiltonian);
            for (const char *be : {"2qan", "2qan_rrr"}) {
                CompileInput in;
                in.label = jobLabel(b, topo.name(), be, n, 0);
                in.hamText = text;
                in.device = dev;
                in.gateset = device::GateSet::Cnot;
                in.backend = be;
                in.seed = core::sweepCompileSeed(b, n, 0, be, 0);
                out.push_back(std::move(in));
            }
        }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

CompileOutput
compileToQasm(const CompileInput &in, Trace *trace)
{
    ham::TwoLocalHamiltonian h = timed(trace, "ham.parse_ms", [&] {
        return ham::parseHamiltonian(in.hamText);
    });
    device::Topology topo = timed(trace, "device.topology_ms", [&] {
        return testgen::topologyFromSpec(in.device);
    });
    qcir::Circuit step = timed(trace, "ham.trotter_ms",
                               [&] { return ham::trotterStep(h, 1.0); });

    const core::CompilerBackend &backend =
        core::backendByName(in.backend);
    core::CompileJob job;
    job.step = &step;
    job.hamiltonian = &h;
    job.time = 1.0;
    job.options.seed = in.seed;
    core::CompileResult res = timed(trace, "core.compile_ms", [&] {
        return backend.compile(job, topo);
    });
    core::CompilationMetrics m = timed(trace, "core.metrics_ms", [&] {
        return backend.metrics(res, step, in.gateset);
    });
    qcir::Circuit hw = timed(trace, "decomp.synth_ms", [&] {
        return in.gateset == device::GateSet::Cz
                   ? decomp::decomposeToCz(res.sched.deviceCircuit)
                   : decomp::decomposeToCnot(res.sched.deviceCircuit);
    });
    std::string qasm =
        timed(trace, "qcir.qasm_ms", [&] { return qcir::toQasm(hw); });

    if (trace) {
        addPassTimes(*trace, res);
        trace->add("qcir.step_ops", step.size());
        trace->add("qcir.device_ops", res.sched.deviceCircuit.size());
        trace->add("qcir.native_ops", hw.size());
        trace->add("qcir.qasm_bytes", static_cast<double>(qasm.size()));
        trace->add("device.qubits", topo.numQubits());
    }
    return CompileOutput{m,
                         std::move(qasm),
                         hw.size(),
                         std::move(topo),
                         std::move(step),
                         std::move(res)};
}

Quality
qualityOf(const core::CompilationMetrics &m, const std::string &qasm)
{
    return Quality{m.swaps, m.depth2q, m.native2q, core::fnv1a64(qasm)};
}

std::string
checkOutput(const std::string &qasm, int hwGates,
            const device::Topology &topo)
{
    qcir::Circuit parsed(1);
    try {
        parsed = qcir::parseQasm(qasm);
    } catch (const std::exception &e) {
        return std::string("QASM does not re-parse: ") + e.what();
    }
    if (parsed.size() != hwGates)
        return "QASM re-parses to " + std::to_string(parsed.size()) +
               " gates, emitted " + std::to_string(hwGates);
    for (const qcir::Op &op : parsed.ops())
        if (op.isTwoQubit() && !topo.connected(op.q0, op.q1))
            return "two-qubit gate " + op.str() +
                   " is off the coupling graph";
    return "";
}

void
verifyCompile(const std::string &label, const qcir::Circuit &step,
              const core::CompileResult &res, VerifyTally &tally)
{
    // One random-input trial on the device circuit only: the default
    // (three trials, plus both decompositions re-verified) takes about
    // two minutes on the paper grid, longer than a whole run may.
    // The decompositions are still covered by the QASM checks.
    verify::CheckOptions opt;
    opt.equivalence.trials = 1;
    opt.checkDecompositions = false;
    Clock::time_point t0 = Clock::now();
    verify::CompilationCheck c = verify::checkCompilation(step, res, opt);
    tally.ms += msSince(t0);
    if (c.skipped) {
        ++tally.skipped;
    } else if (c.ok) {
        ++tally.checked;
    } else {
        ++tally.failed;
        if (tally.firstError.empty())
            tally.firstError = label + ": " + c.error;
    }
}

double
calibrationMs()
{
    // Sorting, hashing and scattered loads over a few MiB: the same
    // mix of branchy integer work and cache misses as a compile, in
    // code that no change to libtqan can speed up.
    std::vector<std::uint32_t> v(1 << 17);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    Clock::time_point t0 = Clock::now();
    for (std::uint32_t &e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::uint32_t>(x);
    }
    std::sort(v.begin(), v.end());
    std::map<std::uint32_t, std::uint32_t> m;
    for (std::size_t i = 0; i < v.size(); i += 8)
        m[v[(i * 2654435761u) % v.size()]] = static_cast<std::uint32_t>(i);
    std::uint64_t acc = m.size();
    std::uint32_t at = 0;
    for (int i = 0; i < (1 << 18); ++i) {
        at = v[(at + i) & (v.size() - 1)] & (v.size() - 1);
        acc += at;
    }
    double ms = msSince(t0);
    if (acc == 42)  // keeps the loads observable
        std::fprintf(stderr, "calibration: %llu\n",
                     static_cast<unsigned long long>(acc));
    return ms;
}

double
SpeedScale::factor()
{
    if (!have_ || msSince(last_) > 500.0) {
        std::vector<double> shots;
        for (int i = 0; i < 5; ++i)
            shots.push_back(calibrationMs());
        factor_ = kReferenceMs / median(shots);
        last_ = Clock::now();
        have_ = true;
    }
    return factor_;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of an empty sample");
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(v.size()) + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), v.size());
    return v[rank - 1];
}

double
midMean(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("midMean of an empty sample");
    std::sort(v.begin(), v.end());
    std::size_t lo = v.size() * 2 / 5, hi = (v.size() * 3 + 4) / 5;
    hi = std::max(hi, lo + 1);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / double(hi - lo);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
