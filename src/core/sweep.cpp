#include "core/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/backend.h"
#include "core/hash.h"
#include "core/profile.h"
#include "core/router_registry.h"
#include "service/json.h"
#include "robust/fault.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "sim/engine.h"
#include "sim/noise.h"
#include "sim/statevector.h"
#include "simd/dispatch.h"
#include "verify/check.h"

namespace tqan {
namespace core {

namespace {

constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

} // namespace

std::string
benchmarkName(Benchmark b)
{
    switch (b) {
      case Benchmark::NnnHeisenberg: return "NNN_Heisenberg";
      case Benchmark::NnnXY: return "NNN_XY";
      case Benchmark::NnnIsing: return "NNN_Ising";
      case Benchmark::QaoaReg3: return "QAOA_REG3";
      case Benchmark::QaoaDense: return "QAOA_DENSE";
    }
    throw std::invalid_argument("benchmarkName: bad enum value");
}

Benchmark
benchmarkByName(const std::string &name)
{
    // QaoaDense resolves by name but stays out of allBenchmarks()
    // so default grids (and the golden files) never pick it up.
    std::vector<Benchmark> known = allBenchmarks();
    known.push_back(Benchmark::QaoaDense);
    for (Benchmark b : known)
        if (benchmarkName(b) == name)
            return b;
    throw std::invalid_argument(
        "unknown benchmark '" + name +
        "' (expected NNN_Heisenberg | NNN_XY | NNN_Ising | "
        "QAOA_REG3 | QAOA_DENSE)");
}

std::vector<Benchmark>
allBenchmarks()
{
    return {Benchmark::NnnHeisenberg, Benchmark::NnnXY,
            Benchmark::NnnIsing, Benchmark::QaoaReg3};
}

std::vector<int>
chainSizes(int cap)
{
    std::vector<int> s;
    for (int n = 6; n <= 26; n += 2)
        if (n <= cap)
            s.push_back(n);
    for (int n : {32, 40, 50})
        if (n <= cap)
            s.push_back(n);
    return s;
}

std::vector<int>
qaoaSizes(int cap)
{
    std::vector<int> s;
    for (int n = 4; n <= 22; n += 2)
        if (n <= cap)
            s.push_back(n);
    return s;
}

std::uint64_t
sweepInstanceSeed(Benchmark b, int n, int instance)
{
    return 0x5eed0000ull + static_cast<int>(b) * 104729ull +
           n * 1299709ull + instance * 15485863ull;
}

std::uint64_t
sweepCompileSeed(Benchmark b, int n, int instance,
                 const std::string &backend, std::uint64_t base)
{
    return (sweepInstanceSeed(b, n, instance) ^ fnv1a64(backend)) +
           base * kSeedStride;
}

namespace {

/** A sim case's inputs, built once so timed repeats cover only the
 * simulation itself (not graph/circuit construction or thread-pool
 * spawn). */
struct SimWorkload
{
    graph::Graph g{1, {}};
    qcir::Circuit circ{1};
    sim::NoiseModel nm;
    std::uint64_t trajSeed = 0;
};

SimWorkload
prepareSimCase(const SimBenchCase &c, std::uint64_t baseSeed)
{
    if (c.n < 4 || c.n % 2 != 0)
        throw std::invalid_argument(
            "runSimCase: n must be even and >= 4 (3-regular "
            "graph)");
    if (c.layers < 1 || c.shots < 0)
        throw std::invalid_argument("runSimCase: bad layers/shots");

    // Same instance-seeding convention as the compile sweeps, so a
    // sim case and a QAOA_REG3 compile row of equal (n, instance)
    // describe the same graph.
    const std::uint64_t instSeed =
        sweepInstanceSeed(Benchmark::QaoaReg3, c.n, c.instance) +
        baseSeed * kSeedStride;
    SimWorkload w;
    std::mt19937_64 grng(instSeed);
    w.g = graph::randomRegularGraph(c.n, 3, grng);
    w.circ =
        ham::qaoaStateCircuit(w.g, ham::qaoaFixedAngles(c.layers));
    w.nm = sim::montrealNoise();
    w.trajSeed = instSeed ^ kSeedStride;
    return w;
}

double
runPreparedSimCase(const SimWorkload &w, const SimBenchCase &c,
                   const sim::Engine *eng)
{
    if (c.shots > 0)
        return sim::noisyExpectationZZ(w.circ, c.n, w.g.edges(),
                                       w.nm, c.shots, w.trajSeed,
                                       eng);
    sim::Statevector psi(c.n, eng);
    psi.applyCircuit(w.circ);
    return psi.expectationZZ(w.g.edges());
}

} // namespace

double
runSimCase(const SimBenchCase &c, std::uint64_t baseSeed, int jobs)
{
    SimWorkload w = prepareSimCase(c, baseSeed);
    std::unique_ptr<simd::ScopedForceIsa> force;
    if (c.forceScalar)
        force.reset(new simd::ScopedForceIsa(simd::Isa::Scalar));
    sim::Engine eng(jobs);
    return runPreparedSimCase(w, c, &eng);
}

SweepUnit
buildSweepUnit(Benchmark b, int n, int instance,
               std::uint64_t baseSeed)
{
    std::mt19937_64 rng(sweepInstanceSeed(b, n, instance) +
                        baseSeed * kSeedStride);
    ham::TwoLocalHamiltonian h = [&]() {
        switch (b) {
          case Benchmark::NnnHeisenberg:
            return ham::nnnHeisenberg(n, rng);
          case Benchmark::NnnXY:
            return ham::nnnXY(n, rng);
          case Benchmark::NnnIsing:
            return ham::nnnIsing(n, rng);
          case Benchmark::QaoaReg3: {
            auto g = graph::randomRegularGraph(n, 3, rng);
            return ham::qaoaLayerHamiltonian(
                g, ham::qaoaFixedAngles(1)[0]);
          }
          case Benchmark::QaoaDense: {
            // G(n, 0.5): ~n^2/4 interaction edges on n qubits —
            // far denser than any device graph, so routing (not
            // placement) dominates.  The adversarial workload the
            // router preset scores greedy vs rrr on.
            auto g = graph::erdosRenyi(n, 0.5, rng);
            return ham::qaoaLayerHamiltonian(
                g, ham::qaoaFixedAngles(1)[0]);
          }
        }
        throw std::invalid_argument("buildSweepUnit: bad benchmark");
    }();

    SweepUnit unit;
    unit.benchmark = b;
    unit.n = n;
    unit.instance = instance;
    unit.step = std::make_shared<const qcir::Circuit>(
        ham::trotterStep(h, 1.0));
    unit.hamiltonian =
        std::make_shared<const ham::TwoLocalHamiltonian>(
            std::move(h));
    return unit;
}

namespace {

std::vector<std::string>
tokens(const std::string &s)
{
    std::istringstream is(s);
    std::vector<std::string> out;
    std::string t;
    while (is >> t)
        out.push_back(t);
    return out;
}

std::string
trimmed(const std::string &s)
{
    size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

SweepDeviceSpec
parsedDevice(const std::string &token)
{
    SweepDeviceSpec d;
    size_t at = token.find('@');
    d.name = token.substr(0, at);
    if (at != std::string::npos)
        d.gateset = token.substr(at + 1);
    if (d.name.empty())
        throw std::invalid_argument(
            "sweep spec: empty device name in '" + token + "'");
    return d;
}

} // namespace

SweepSpec
parseSweepSpec(std::istream &in)
{
    SweepSpec spec;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimmed(line);
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "sweep spec line " + std::to_string(lineno) +
                ": expected 'key = value', got '" + line + "'");
        std::string key = trimmed(line.substr(0, eq));
        std::vector<std::string> vals =
            tokens(line.substr(eq + 1));

        std::string family;
        size_t dot = key.find('.');
        if (dot != std::string::npos) {
            family = key.substr(dot + 1);
            key = key.substr(0, dot);
        }

        auto one = [&]() -> const std::string & {
            if (vals.size() != 1)
                throw std::invalid_argument(
                    "sweep spec: key '" + key +
                    "' takes exactly one value");
            return vals.front();
        };
        auto badInteger = [&key](const std::string &v) {
            return std::invalid_argument("sweep spec: bad integer '" +
                                         v + "' for key '" + key +
                                         "'");
        };
        auto integer = [&](const std::string &v) {
            int out = 0;
            if (!service::parseI32(v, &out))
                throw badInteger(v);
            return out;
        };
        auto integers = [&]() {
            std::vector<int> out;
            for (const auto &v : vals)
                out.push_back(integer(v));
            return out;
        };

        if (key == "experiment" && family.empty()) {
            spec.experiment = one();
        } else if (key == "benchmarks" && family.empty()) {
            spec.benchmarks.clear();
            for (const auto &v : vals)
                spec.benchmarks.push_back(benchmarkByName(v));
        } else if (key == "devices" && family.empty()) {
            spec.devices.clear();
            for (const auto &v : vals)
                spec.devices.push_back(parsedDevice(v));
        } else if (key == "backends") {
            // Resolve each name now: a typo'd backend fails at
            // parse time with the registered names listed, not an
            // hour into the batch run.
            for (const auto &v : vals)
                backendByName(v);
            if (family.empty())
                spec.backends = vals;
            else
                spec.backendsFor[benchmarkByName(family)] = vals;
        } else if (key == "router" && family.empty()) {
            spec.router = one();
            routerByName(spec.router);  // parse-time validation
        } else if (key == "sizes") {
            if (family.empty())
                spec.sizes = integers();
            else
                spec.sizesFor[benchmarkByName(family)] =
                    integers();
        } else if (key == "instances") {
            if (family.empty())
                spec.instances = integer(one());
            else
                spec.instancesFor[benchmarkByName(family)] =
                    integer(one());
        } else if (key == "seed" && family.empty()) {
            if (!service::parseU64(one(), &spec.seed))
                throw badInteger(one());
        } else if (key == "trials" && family.empty()) {
            spec.trials = integer(one());
        } else if (key == "mapper_jobs" && family.empty()) {
            spec.mapperJobs = integer(one());
        } else if (key == "verify" && family.empty()) {
            const std::string &v = one();
            if (v == "on" || v == "1")
                spec.verify = true;
            else if (v == "off" || v == "0")
                spec.verify = false;
            else
                throw std::invalid_argument(
                    "sweep spec line " + std::to_string(lineno) +
                    ": verify takes on|off|1|0, got '" + v + "'");
        } else if (key == "sim" && family.empty()) {
            // sim = LABEL N LAYERS SHOTS [INSTANCE] [scalar]
            // Appends one simulation bench case per line.
            SimBenchCase sc;
            size_t nvals = vals.size();
            if (nvals > 0 && vals[nvals - 1] == "scalar") {
                sc.forceScalar = true;
                --nvals;
            }
            if (nvals < 4 || nvals > 5)
                throw std::invalid_argument(
                    "sweep spec line " + std::to_string(lineno) +
                    ": sim takes LABEL N LAYERS SHOTS [INSTANCE] "
                    "[scalar]");
            sc.label = vals[0];
            sc.n = integer(vals[1]);
            sc.layers = integer(vals[2]);
            sc.shots = integer(vals[3]);
            if (nvals == 5)
                sc.instance = integer(vals[4]);
            spec.simCases.push_back(std::move(sc));
        } else {
            throw std::invalid_argument(
                "sweep spec line " + std::to_string(lineno) +
                ": unknown key '" + key +
                (family.empty() ? "" : "." + family) + "'");
        }
    }
    return spec;
}

std::string
sweepSpecHelp()
{
    return
        "Sweep spec: 'key = value ...' lines, '#' comments.\n"
        "\n"
        "  experiment = NAME          row label (default 'sweep')\n"
        "  benchmarks = FAM ...       NNN_Heisenberg | NNN_XY |\n"
        "                             NNN_Ising | QAOA_REG3 |\n"
        "                             QAOA_DENSE (default: the\n"
        "                             paper's four; QAOA_DENSE — a\n"
        "                             QAOA layer on an Erdos-Renyi\n"
        "                             G(n,0.5) graph, a routing\n"
        "                             stress workload — is opt-in\n"
        "                             only)\n"
        "  devices = DEV[@GS] ...     montreal | sycamore | aspen |\n"
        "                             manhattan | line:N | ring:N |\n"
        "                             grid:RxC, optional gate set\n"
        "                             cnot | cz | iswap | syc\n"
        "                             (default: the paper's choice)\n"
        "  backends = B ...           registered compiler backends\n"
        "  sizes = N ...              qubit counts; sizes larger\n"
        "                             than a device are skipped\n"
        "  instances = K              instances per size (default 1)\n"
        "  seed = S                   base seed; 0 = canonical grid\n"
        "  trials = K                 2QAN mapper trials (default 5)\n"
        "  mapper_jobs = N            threads inside each 2QAN job\n"
        "  router = NAME              route every job with this\n"
        "                             registered core router\n"
        "                             (greedy | rrr); unset = each\n"
        "                             backend's own default\n"
        "  verify = on|off            end-to-end verify every ok\n"
        "                             row (un-map + operator\n"
        "                             multiset + unitary oracle);\n"
        "                             mismatches fail the row\n"
        "\n"
        "  sizes.FAM / instances.FAM / backends.FAM override the\n"
        "  global value for one family, e.g.\n"
        "    sizes.QAOA_REG3 = 4 6 8\n"
        "    backends.QAOA_REG3 = 2qan qiskit_sabre ic_qaoa\n"
        "\n"
        "  sim = LABEL N LAYERS SHOTS [INSTANCE] [scalar]\n"
        "  appends one simulation-throughput case (--bench only):\n"
        "  p-layer QAOA on a random 3-regular graph, SHOTS noisy\n"
        "  trajectories (0 = one noiseless pass); 'scalar' pins the\n"
        "  engine's SIMD dispatch to the scalar kernels (backend\n"
        "  label 'engine-scalar').  A spec may be sim-only: sim\n"
        "  lines and no devices.\n";
}

SweepSpec
sweepPreset(const std::string &name)
{
    SweepSpec s;
    s.experiment = name;
    if (name == "golden") {
        // All five backends; IC-QAOA only accepts ZZ-only circuits,
        // so it joins on the QAOA rows (as in the paper).
        s.devices = {{"grid:4x4", ""}, {"sycamore", ""}};
        s.backends = {"2qan", "qiskit_sabre", "tket_like",
                      "paulihedral_like"};
        s.backendsFor[Benchmark::QaoaReg3] = {
            "2qan", "qiskit_sabre", "tket_like", "ic_qaoa",
            "paulihedral_like"};
        s.sizes = {6, 8};
        s.instances = 1;
        s.seed = 0;
        s.trials = 3;
        return s;
    }
    if (name == "smoke") {
        s.benchmarks = {Benchmark::NnnHeisenberg,
                        Benchmark::QaoaReg3};
        s.devices = {{"grid:3x3", ""}};
        s.backends = {"2qan", "qiskit_sabre", "tket_like"};
        s.sizes = {6};
        s.trials = 3;
        // One simulation-throughput row so the CI perf gate also
        // guards the sim engine (big enough to clear the bench
        // jitter floor, small enough for a smoke run).
        s.simCases = {{"qaoa_p1_traj16", 14, 1, 16, 0}};
        return s;
    }
    if (name == "fidelity") {
        // Simulation-throughput microbenchmarks (--bench only): the
        // 20-qubit p=1 QAOA trajectory batch plus a noiseless
        // 22-qubit pass on the engine.  Their rows share keys with
        // BENCH_pr4.json's engine rows, which gate them.
        s.simCases = {
            {"qaoa_p1_traj64", 20, 1, 64, 0},
            {"qaoa_p1_state", 22, 1, 0, 0},
        };
        return s;
    }
    if (name == "simd") {
        // Paired scalar-vs-dispatched rows, one per workload, from a
        // single --bench invocation: the fidelity-preset engine
        // workloads (20-qubit trajectory batch + 22-qubit noiseless
        // pass) each timed dispatched and scalar-forced, plus a
        // tabu-heavy sycamore compile row (the 54-qubit device at
        // n=40 keeps the mapper's delta-scan hot) re-run scalar via
        // simdPairedCompile.  BENCH_pr6.json is this preset's
        // output; the PR 6 acceptance bar is engine/engine-scalar
        // median >= 1.5x on the sim rows.
        s.benchmarks = {Benchmark::NnnHeisenberg};
        s.devices = {{"sycamore", ""}};
        s.backends = {"2qan"};
        s.sizes = {40};
        s.trials = 3;
        s.simdPairedCompile = true;
        s.simCases = {
            {"qaoa_p1_traj64", 20, 1, 64, 0, false},
            {"qaoa_p1_traj64", 20, 1, 64, 0, true},
            {"qaoa_p1_state", 22, 1, 0, 0, false},
            {"qaoa_p1_state", 22, 1, 0, 0, true},
        };
        return s;
    }
    if (name == "verify") {
        // End-to-end correctness grid: every backend on every
        // family, devices small enough for the full statevector
        // oracle, verification on.  IC-QAOA joins on the QAOA rows
        // only (ZZ-only circuits, as in the paper).
        s.devices = {{"grid:3x3", ""}, {"line:8", ""},
                     {"aspen", ""}};
        s.backends = {"2qan", "2qan_rrr", "qiskit_sabre",
                      "tket_like", "paulihedral_like"};
        s.backendsFor[Benchmark::QaoaReg3] = {
            "2qan", "2qan_rrr", "qiskit_sabre", "tket_like",
            "ic_qaoa", "paulihedral_like"};
        s.sizes = {4, 6, 8};
        s.instances = 2;
        s.trials = 2;
        s.verify = true;
        return s;
    }
    if (name == "router") {
        // Paired greedy-vs-rrr rows (the PR 8 perf/quality gate):
        // the same instances compiled by the 2qan pipeline with its
        // default greedy router and by 2qan_rrr, the
        // negotiated-congestion ripup-and-reroute router.  The
        // QAOA_DENSE rows (Erdos-Renyi G(n,0.5)) are the routing
        // stress case where negotiation pays off; the QAOA_REG3 rows
        // guard against regressing the paper workloads.
        // BENCH_pr8.json is this preset's --bench output: its swaps
        // and depth2q columns record the quality win, its medians
        // feed the usual timing gate.
        s.benchmarks = {Benchmark::QaoaDense, Benchmark::QaoaReg3};
        s.devices = {{"grid:4x4", ""}, {"sycamore", ""}};
        s.backends = {"2qan", "2qan_rrr"};
        s.sizes = {8, 10, 12};
        s.instances = 2;
        s.trials = 3;
        return s;
    }
    if (name == "table1_table2") {
        // The Table I/II grid: chains on all three devices (the
        // paper stops the Ising sweep at 40), QAOA with 5 instances
        // per size; sizes auto-cap at each device's qubit count.
        s.devices = {{"sycamore", ""}, {"aspen", ""},
                     {"montreal", ""}};
        s.backends = {"2qan", "qiskit_sabre", "tket_like"};
        s.sizes = chainSizes(50);
        s.sizesFor[Benchmark::NnnIsing] = chainSizes(40);
        s.sizesFor[Benchmark::QaoaReg3] = qaoaSizes(22);
        s.instancesFor[Benchmark::QaoaReg3] = 5;
        return s;
    }
    if (name == "figures") {
        // Fig. 7/8/9 (each device's paper gate set) and Fig. 11/12
        // (Sycamore and Aspen with CZ) in one grid: 10 QAOA
        // instances and IC-QAOA on the QAOA rows.
        s.devices = {{"sycamore", ""}, {"aspen", ""},
                     {"montreal", ""}, {"sycamore", "cz"},
                     {"aspen", "cz"}};
        s.backends = {"2qan", "qiskit_sabre", "tket_like"};
        s.backendsFor[Benchmark::QaoaReg3] = {
            "2qan", "qiskit_sabre", "tket_like", "ic_qaoa"};
        s.sizes = chainSizes(50);
        s.sizesFor[Benchmark::NnnIsing] = chainSizes(40);
        s.sizesFor[Benchmark::QaoaReg3] = qaoaSizes(22);
        s.instancesFor[Benchmark::QaoaReg3] = 10;
        return s;
    }
    throw std::invalid_argument(
        "unknown sweep preset '" + name + "' (available: golden | "
        "smoke | verify | router | table1_table2 | figures | "
        "fidelity | simd)");
}

std::vector<std::string>
sweepPresetNames()
{
    return {"golden", "smoke", "verify", "router", "table1_table2",
            "figures", "fidelity", "simd"};
}

ExpandedSweep
expandSweep(const SweepSpec &spec)
{
    if (spec.devices.empty())
        throw std::invalid_argument("expandSweep: no devices");
    if (spec.benchmarks.empty())
        throw std::invalid_argument("expandSweep: no benchmarks");

    ExpandedSweep ex;
    ex.topologies.reserve(spec.devices.size());
    ex.gatesets.reserve(spec.devices.size());
    for (const auto &d : spec.devices) {
        ex.topologies.push_back(device::deviceByName(d.name));
        ex.gatesets.push_back(
            d.gateset.empty()
                ? device::defaultGateSet(d.name)
                : device::gateSetByName(d.gateset));
    }

    auto sizesOf = [&](Benchmark b) -> const std::vector<int> & {
        auto it = spec.sizesFor.find(b);
        return it != spec.sizesFor.end() ? it->second : spec.sizes;
    };
    auto instancesOf = [&](Benchmark b) {
        auto it = spec.instancesFor.find(b);
        return it != spec.instancesFor.end() ? it->second
                                             : spec.instances;
    };
    auto backendsOf =
        [&](Benchmark b) -> const std::vector<std::string> & {
        auto it = spec.backendsFor.find(b);
        return it != spec.backendsFor.end() ? it->second
                                            : spec.backends;
    };

    for (Benchmark b : spec.benchmarks) {
        if (sizesOf(b).empty())
            throw std::invalid_argument(
                "expandSweep: no sizes for " + benchmarkName(b));
        if (backendsOf(b).empty())
            throw std::invalid_argument(
                "expandSweep: no backends for " + benchmarkName(b));
        if (instancesOf(b) < 1)
            throw std::invalid_argument(
                "expandSweep: instances < 1 for " +
                benchmarkName(b));
        for (int n : sizesOf(b))
            for (int inst = 0; inst < instancesOf(b); ++inst)
                ex.units.push_back(
                    buildSweepUnit(b, n, inst, spec.seed));
    }

    // Topologies and units are final; jobs may now point into them.
    for (const SweepUnit &u : ex.units) {
        for (size_t d = 0; d < ex.topologies.size(); ++d) {
            if (u.n > ex.topologies[d].numQubits())
                continue;
            for (const std::string &be : backendsOf(u.benchmark)) {
                // Declared backend preconditions (BackendInfo), the
                // same filter the fuzz harness applies: a
                // diagonal-only backend is routed away from
                // non-diagonal units instead of producing a
                // guaranteed-error row.
                if (backendByName(be).info().diagonalOnly &&
                    !u.hamiltonian->isDiagonal())
                    continue;
                BatchJob bj;
                bj.backend = be;
                bj.topo = &ex.topologies[d];
                bj.gateset = ex.gatesets[d];
                bj.job.step = u.step.get();
                bj.job.hamiltonian = u.hamiltonian.get();
                bj.job.time = 1.0;
                bj.job.options.seed = sweepCompileSeed(
                    u.benchmark, u.n, u.instance, be, spec.seed);
                bj.job.options.mapperTrials = spec.trials;
                bj.job.options.jobs = spec.mapperJobs;
                if (!spec.router.empty())
                    bj.job.options.router.name = spec.router;

                SweepRow row;
                row.experiment = spec.experiment;
                row.benchmark = benchmarkName(u.benchmark);
                row.device = ex.topologies[d].name();
                row.gateset = device::gateSetName(ex.gatesets[d]);
                row.backend = be;
                row.nqubits = u.n;
                row.instance = u.instance;
                bj.tag = row.benchmark + "/" + row.device + "/" +
                         be + "/n" + std::to_string(u.n) + "/i" +
                         std::to_string(u.instance);
                ex.jobs.push_back(std::move(bj));
                ex.rows.push_back(std::move(row));
            }
        }
    }
    if (ex.jobs.empty())
        throw std::invalid_argument(
            "expandSweep: empty grid (every size exceeds every "
            "device?)");
    return ex;
}

namespace {

/** Compile + (optionally) verify one grid row in place.  A backend
 * error lands in row->error — a scored failure row, not a shard
 * failure; shard failures (retry, quarantine) are reserved for
 * infrastructure faults. */
void
scoreSweepShard(const BatchCompiler &bc, const BatchJob &bj,
                bool verifyRow, SweepRow *row)
{
    BatchJobResult res = bc.runOne(bj);
    row->metrics = res.metrics;
    row->seconds = res.seconds;
    const auto &times = res.result.passTimes;
    row->mappingSeconds = passSeconds(times, "mapping");
    row->routingSeconds = passSeconds(times, "routing");
    row->schedulingSeconds = passSeconds(times, "scheduling");
    row->error = res.error;
    if (verifyRow && row->ok()) {
        verify::CompilationCheck chk =
            verify::checkCompilation(*bj.job.step, res.result);
        // skipped == oracle-unavailable: not a verdict, so the row
        // is neither failed nor certified; only real refutations
        // set the error.
        if (!chk.ok && !chk.skipped)
            row->error = "verification failed: " + chk.error;
    }
}

/** Campaign identity of a spec: every knob that shapes a shard's
 * payload, so a journal can never be resumed under a different
 * grid. */
std::string
sweepConfigTag(const char *kind, const SweepSpec &spec)
{
    std::ostringstream os;
    os << kind << "-v1 exp=" << spec.experiment
       << " seed=" << spec.seed << " trials=" << spec.trials
       << " router=" << spec.router
       << " verify=" << (spec.verify ? 1 : 0) << " bench=";
    for (Benchmark b : spec.benchmarks)
        os << benchmarkName(b) << ';';
    os << " dev=";
    for (const auto &d : spec.devices)
        os << d.name << '@' << d.gateset << ';';
    os << " be=";
    for (const auto &b : spec.backends)
        os << b << ';';
    os << " sizes=";
    for (int n : spec.sizes)
        os << n << ';';
    os << " inst=" << spec.instances;
    for (const auto &kv : spec.sizesFor) {
        os << " sizes." << benchmarkName(kv.first) << '=';
        for (int n : kv.second)
            os << n << ';';
    }
    for (const auto &kv : spec.instancesFor)
        os << " inst." << benchmarkName(kv.first) << '='
           << kv.second;
    for (const auto &kv : spec.backendsFor) {
        os << " be." << benchmarkName(kv.first) << '=';
        for (const auto &b : kv.second)
            os << b << ';';
    }
    return os.str();
}

CampaignTallies
talliesOf(const robust::CampaignResult &camp)
{
    CampaignTallies t;
    t.restored = camp.restored;
    t.retried = camp.retried;
    t.quarantined = camp.quarantined;
    t.skipped = camp.skipped;
    t.interrupted = camp.interrupted;
    return t;
}

/** Row for a shard that produced no payload. */
std::string
unresolvedShardError(const robust::ShardReport &rep)
{
    return rep.state == robust::ShardState::Quarantined
               ? "quarantined: " + rep.error
               : "skipped (campaign interrupted)";
}

} // namespace

SweepCampaignOutcome
runSweepCampaign(const SweepSpec &spec, const BatchCompiler &bc,
                 const robust::CampaignOptions &opt)
{
    ExpandedSweep ex = expandSweep(spec);

    robust::CampaignOptions co = opt;
    if (co.workers <= 0)
        co.workers = bc.options().jobs;
    co.configTag = sweepConfigTag("sweep", spec);

    robust::CampaignResult camp = robust::runCampaign(
        ex.jobs.size(),
        [&bc, &ex, &spec](std::uint64_t shard, int) {
            if (robust::faultPoint("sweep.shard"))
                throw std::runtime_error(
                    "injected fault: sweep.shard");
            SweepRow row = ex.rows[shard];
            scoreSweepShard(bc, ex.jobs[shard], spec.verify, &row);
            return toJson(row);
        },
        co);

    // Rows come from payloads only, in shard order: a restored shard
    // contributes the exact bytes its original run journaled, so a
    // resumed sweep's rows equal an uninterrupted run's byte for
    // byte.
    SweepCampaignOutcome out;
    out.rows.reserve(ex.rows.size());
    for (size_t i = 0; i < camp.payloads.size(); ++i) {
        if (!camp.payloads[i].empty()) {
            out.rows.push_back(sweepRowFromJson(camp.payloads[i]));
        } else {
            SweepRow row = ex.rows[i];
            row.error = unresolvedShardError(camp.shards[i]);
            out.rows.push_back(std::move(row));
        }
    }
    out.tallies = talliesOf(camp);
    return out;
}

std::vector<SweepRow>
runSweep(const SweepSpec &spec, const BatchCompiler &bc)
{
    robust::CampaignOptions co;
    co.workers = bc.options().jobs;
    return runSweepCampaign(spec, bc, co).rows;
}

std::string
sweepCsvHeader()
{
    return "experiment,benchmark,device,gateset,compiler,nqubits,"
           "instance,swaps,dressed,native2q,depth2q,depthall,"
           "native2q_nomap,depth2q_nomap,depthall_nomap";
}

std::string
toCsv(const SweepRow &row)
{
    const CompilationMetrics &m = row.metrics;
    char buf[256];
    if (row.ok())
        std::snprintf(buf, sizeof(buf),
                      ",%d,%d,%d,%d,%d,%d,%d,%d", m.swaps,
                      m.dressed, m.native2q, m.depth2q, m.depthAll,
                      m.native2qNoMap, m.depth2qNoMap,
                      m.depthAllNoMap);
    else
        std::snprintf(buf, sizeof(buf),
                      ",-1,-1,-1,-1,-1,-1,-1,-1");
    return row.experiment + "," + row.benchmark + "," + row.device +
           "," + row.gateset + "," + row.backend + "," +
           std::to_string(row.nqubits) + "," +
           std::to_string(row.instance) + buf;
}

std::string
toJson(const SweepRow &row)
{
    const CompilationMetrics &m = row.metrics;
    std::ostringstream os;
    os << "{\"experiment\":\"" << service::jsonEscape(row.experiment)
       << "\",\"benchmark\":\"" << service::jsonEscape(row.benchmark)
       << "\",\"device\":\"" << service::jsonEscape(row.device)
       << "\",\"gateset\":\"" << service::jsonEscape(row.gateset)
       << "\",\"compiler\":\"" << service::jsonEscape(row.backend)
       << "\",\"nqubits\":" << row.nqubits
       << ",\"instance\":" << row.instance
       << ",\"swaps\":" << m.swaps << ",\"dressed\":" << m.dressed
       << ",\"native2q\":" << m.native2q
       << ",\"depth2q\":" << m.depth2q
       << ",\"depthall\":" << m.depthAll
       << ",\"native2q_nomap\":" << m.native2qNoMap
       << ",\"depth2q_nomap\":" << m.depth2qNoMap
       << ",\"depthall_nomap\":" << m.depthAllNoMap
       << ",\"seconds\":" << row.seconds
       << ",\"mapping_seconds\":" << row.mappingSeconds
       << ",\"routing_seconds\":" << row.routingSeconds
       << ",\"scheduling_seconds\":" << row.schedulingSeconds
       << ",\"error\":\"" << service::jsonEscape(row.error) << "\"}";
    return os.str();
}

std::vector<SweepTableRow>
aggregateTables(const std::vector<SweepRow> &rows,
                const std::string &reference,
                const std::vector<std::string> &baselines)
{
    // (benchmark, device, gateset) -> backend -> config -> metrics,
    // keeping first-appearance order of the groups for the output.
    struct Group
    {
        std::string benchmark, device, gateset;
        std::map<std::string,
                 std::map<std::string, const SweepRow *>>
            byBackend;  // backend -> config key -> row
    };
    std::vector<Group> groups;
    std::map<std::string, size_t> index;
    for (const SweepRow &r : rows) {
        if (!r.ok())
            continue;
        std::string key =
            r.benchmark + "\x1f" + r.device + "\x1f" + r.gateset;
        auto it = index.find(key);
        if (it == index.end()) {
            it = index.emplace(key, groups.size()).first;
            groups.push_back(
                {r.benchmark, r.device, r.gateset, {}});
        }
        std::string cfg = std::to_string(r.nqubits) + "/" +
                          std::to_string(r.instance);
        groups[it->second].byBackend[r.backend][cfg] = &r;
    }

    auto ratio = [](double num, double den) {
        if (den <= 0.0)
            return num > 0.0
                       ? std::numeric_limits<double>::infinity()
                       : 1.0;
        return num / den;
    };
    auto avgMax = [](const std::vector<double> &v) {
        double sum = 0.0, mx = 0.0;
        int finite = 0;
        for (double x : v)
            if (std::isfinite(x)) {
                sum += x;
                mx = std::max(mx, x);
                ++finite;
            }
        if (finite == 0)
            return std::make_pair(
                std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity());
        return std::make_pair(sum / finite, mx);
    };

    std::vector<SweepTableRow> out;
    for (const std::string &baseline : baselines) {
        for (const Group &g : groups) {
            auto refIt = g.byBackend.find(reference);
            auto baseIt = g.byBackend.find(baseline);
            if (refIt == g.byBackend.end() ||
                baseIt == g.byBackend.end())
                continue;
            std::vector<double> swaps, gates, depth;
            for (const auto &[cfg, ref] : refIt->second) {
                auto b = baseIt->second.find(cfg);
                if (b == baseIt->second.end())
                    continue;
                const CompilationMetrics &mb = b->second->metrics;
                const CompilationMetrics &mr = ref->metrics;
                swaps.push_back(ratio(mb.swaps, mr.swaps));
                gates.push_back(
                    ratio(mb.gateOverhead(), mr.gateOverhead()));
                depth.push_back(ratio(mb.depth2qOverhead(),
                                      mr.depth2qOverhead()));
            }
            if (swaps.empty())
                continue;
            const char *metrics[] = {"swaps", "gates", "depth2q"};
            const std::vector<double> *vals[] = {&swaps, &gates,
                                                 &depth};
            for (int k = 0; k < 3; ++k) {
                auto [avg, mx] = avgMax(*vals[k]);
                out.push_back({"vs_" + baseline, baseline,
                               g.benchmark, g.device, g.gateset,
                               metrics[k], avg, mx});
            }
        }
    }
    return out;
}

std::string
sweepTableCsvHeader()
{
    return "table,baseline,benchmark,device,gateset,metric,"
           "avg_reduction,max_reduction";
}

std::string
toCsv(const SweepTableRow &row)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",%.2f,%.2f", row.avg, row.max);
    return row.table + "," + row.baseline + "," + row.benchmark +
           "," + row.device + "," + row.gateset + "," + row.metric +
           buf;
}

std::string
BenchRow::key() const
{
    return benchmark + "/" + device + "/" + gateset + "/" + backend +
           "/n" + std::to_string(nqubits) + "/i" +
           std::to_string(instance);
}

namespace {

/** Median of an unsorted sample (average of the two middles for
 * even sizes); 0.0 for an empty sample. */
double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

} // namespace

namespace {

/** Metadata of one sim-throughput row (shared by the shard fn and
 * the placeholder for unresolved shards). */
BenchRow
simBenchMeta(const SimBenchCase &c)
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

} // namespace

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
    if (base.workers <= 0)
        base.workers = bc.options().jobs;
    const std::string benchTag =
        sweepConfigTag("bench", spec) + " warmup=" +
        std::to_string(opt.warmup) + " repeat=" +
        std::to_string(opt.repeat);

    BenchCampaignOutcome out;

    // One supervised phase: run `shards` shard fns, append one row
    // per shard from its payload (placeholder with `error` set for
    // quarantined/skipped shards).  Returns false when interrupted —
    // the caller must not start later phases.
    auto runPhase = [&](std::uint64_t shards,
                        const robust::ShardFn &work,
                        const char *pathSuffix,
                        const std::string &tagSuffix, int workers,
                        const std::function<BenchRow(std::uint64_t)>
                            &metaOf) {
        robust::CampaignOptions co = base;
        if (!co.checkpoint.empty())
            co.checkpoint += pathSuffix;
        co.configTag = benchTag + tagSuffix;
        co.workers = workers;
        robust::CampaignResult camp =
            robust::runCampaign(shards, work, co);
        for (std::uint64_t i = 0; i < shards; ++i) {
            if (!camp.payloads[i].empty()) {
                out.rows.push_back(
                    benchRowFromJson(camp.payloads[i]));
            } else {
                BenchRow b = metaOf(i);
                b.error = unresolvedShardError(camp.shards[i]);
                out.rows.push_back(std::move(b));
            }
        }
        out.tallies.restored += camp.restored;
        out.tallies.retried += camp.retried;
        out.tallies.quarantined += camp.quarantined;
        out.tallies.skipped += camp.skipped;
        out.tallies.interrupted |= camp.interrupted;
        return !camp.interrupted;
    };

    // Compile-throughput phases (skipped entirely for sim-only specs
    // like the `fidelity` preset).
    if (!(spec.devices.empty() && !spec.simCases.empty())) {
        ExpandedSweep ex = expandSweep(spec);

        // Shard = one job: warm it up un-timed, then time `repeat`
        // compiles and reduce to one row.  `suffix` labels the
        // scalar-pinned second phase of simdPairedCompile.
        auto compileShard = [&bc, &ex, &opt](
                                std::uint64_t shard,
                                const std::string &suffix) {
            const BatchJob &bj = ex.jobs[shard];
            const SweepRow &meta = ex.rows[shard];
            BenchRow b;
            b.benchmark = meta.benchmark;
            b.device = meta.device;
            b.gateset = meta.gateset;
            b.backend = meta.backend + suffix;
            b.nqubits = meta.nqubits;
            b.instance = meta.instance;
            for (int w = 0; w < opt.warmup; ++w)
                bc.runOne(bj);
            std::vector<double> secs, mapping, routing, scheduling;
            // Compiled-circuit quality (identical across repeats;
            // the clock is the only thing that varies).
            CompilationMetrics quality;
            bool haveQuality = false;
            for (int r = 0; r < opt.repeat; ++r) {
                BatchJobResult res = bc.runOne(bj);
                if (!res.ok()) {
                    b.error = res.error;
                    continue;
                }
                secs.push_back(res.seconds);
                const auto &times = res.result.passTimes;
                mapping.push_back(passSeconds(times, "mapping"));
                routing.push_back(passSeconds(times, "routing"));
                scheduling.push_back(passSeconds(times, "scheduling"));
                quality = res.metrics;
                haveQuality = true;
            }
            if (b.ok() && !secs.empty()) {
                b.medianSeconds = medianOf(secs);
                b.minSeconds =
                    *std::min_element(secs.begin(), secs.end());
                b.maxSeconds =
                    *std::max_element(secs.begin(), secs.end());
                b.mappingSeconds = medianOf(mapping);
                b.routingSeconds = medianOf(routing);
                b.schedulingSeconds = medianOf(scheduling);
            }
            if (b.ok() && haveQuality) {
                b.swaps = quality.swaps;
                b.depth2q = quality.depth2q;
            }
            return b;
        };
        auto metaOf = [&ex](const std::string &suffix) {
            return [&ex, suffix](std::uint64_t shard) {
                const SweepRow &meta = ex.rows[shard];
                BenchRow b;
                b.benchmark = meta.benchmark;
                b.device = meta.device;
                b.gateset = meta.gateset;
                b.backend = meta.backend + suffix;
                b.nqubits = meta.nqubits;
                b.instance = meta.instance;
                return b;
            };
        };

        bool go = runPhase(
            ex.jobs.size(),
            [&compileShard](std::uint64_t shard, int) {
                if (robust::faultPoint("sweep.shard"))
                    throw std::runtime_error(
                        "injected fault: sweep.shard");
                return benchRowJson(compileShard(shard, ""));
            },
            "", " phase=compile", base.workers, metaOf(""));
        if (!go)
            return out;

        if (spec.simdPairedCompile) {
            // The scalar pin is process-global, so this phase must
            // not interleave with dispatched compiles.
            simd::ScopedForceIsa force(simd::Isa::Scalar);
            if (!runPhase(
                    ex.jobs.size(),
                    [&compileShard](std::uint64_t shard, int) {
                        if (robust::faultPoint("sweep.shard"))
                            throw std::runtime_error(
                                "injected fault: sweep.shard");
                        return benchRowJson(
                            compileShard(shard, "-scalar"));
                    },
                    ".scalar", " phase=scalar", base.workers,
                    metaOf("-scalar")))
                return out;
        }
    }

    // Simulation-throughput phase, sequential (workers = 1) so the
    // timed windows never contend: the engine already runs with the
    // batch's worker count inside one shard.
    if (!spec.simCases.empty()) {
        using Clock = std::chrono::steady_clock;
        const int jobs = std::max(1, bc.options().jobs);
        auto simShard = [&spec, &opt, jobs](std::uint64_t shard) {
            const SimBenchCase &c = spec.simCases[shard];
            BenchRow b = simBenchMeta(c);
            std::vector<double> secs;
            try {
                // The workload is built once: the timed window
                // covers only the simulation (state allocation,
                // gates, reduction), not graph/circuit generation.
                const SimWorkload w = prepareSimCase(c, spec.seed);
                std::unique_ptr<simd::ScopedForceIsa> force;
                if (c.forceScalar)
                    force.reset(new simd::ScopedForceIsa(
                        simd::Isa::Scalar));
                sim::Engine eng(jobs);
                for (int i = 0; i < opt.warmup; ++i)
                    runPreparedSimCase(w, c, &eng);
                for (int r = 0; r < opt.repeat; ++r) {
                    auto t0 = Clock::now();
                    runPreparedSimCase(w, c, &eng);
                    secs.push_back(std::chrono::duration<double>(
                                       Clock::now() - t0)
                                       .count());
                }
            } catch (const std::exception &e) {
                b.error = e.what();
            }
            if (b.ok() && !secs.empty()) {
                b.medianSeconds = medianOf(secs);
                b.minSeconds =
                    *std::min_element(secs.begin(), secs.end());
                b.maxSeconds =
                    *std::max_element(secs.begin(), secs.end());
            }
            return b;
        };
        runPhase(
            spec.simCases.size(),
            [&simShard](std::uint64_t shard, int) {
                if (robust::faultPoint("sweep.shard"))
                    throw std::runtime_error(
                        "injected fault: sweep.shard");
                return benchRowJson(simShard(shard));
            },
            ".sim", " phase=sim", 1,
            [&spec](std::uint64_t shard) {
                return simBenchMeta(spec.simCases[shard]);
            });
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

namespace {

/** Typed reads of one row object parsed by service::parseJsonObject.
 * Every error names the row (`where`, with its line in a bench file)
 * and the field; optional fields leave `*out` as it was when absent. */
class RowFields
{
  public:
    RowFields(std::string where, const std::string &line)
        : where_(std::move(where))
    {
        try {
            obj_ = service::parseJsonObject(line);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(where_ + ": " + e.what());
        }
    }

    /** A string; a required one must also be non-empty. */
    std::string text(const char *key, bool required = false) const
    {
        const service::JsonValue *v = find(key, Kind::String, required);
        if (v && required && v->text.empty())
            fail(key, "is empty");
        return v ? v->text : std::string();
    }

    void integer(const char *key, int minValue, int *out,
                 bool required = true) const
    {
        const service::JsonValue *v = find(key, Kind::Number, required);
        if (!v)
            return;
        if (!service::parseI32(v->text, out))
            fail(key, "is not a 32-bit integer: '" + v->text + "'");
        if (*out < minValue)
            fail(key, "must be >= " + std::to_string(minValue) +
                          ": '" + v->text + "'");
    }

    /** A time in seconds: finite and >= 0. */
    void seconds(const char *key, double *out,
                 bool required = true) const
    {
        const service::JsonValue *v = find(key, Kind::Number, required);
        if (v && (!service::parseF64(v->text, out) || *out < 0.0))
            fail(key, "must be a finite time in seconds >= 0: '" +
                          v->text + "'");
    }

  private:
    using Kind = service::JsonValue::Kind;

    const service::JsonValue *find(const char *key, Kind kind,
                                   bool required) const
    {
        auto it = obj_.find(key);
        if (it == obj_.end()) {
            if (required)
                fail(key, "is missing");
            return nullptr;
        }
        if (it->second.kind != kind)
            fail(key, kind == Kind::String ? "is not a string"
                                           : "is not a number");
        return &it->second;
    }

    [[noreturn]] void fail(const char *key, const std::string &why) const
    {
        throw std::invalid_argument(where_ + ": field \"" + key +
                                    "\" " + why);
    }

    std::string where_;
    service::JsonObject obj_;
};

BenchRow
benchRowFrom(const RowFields &f)
{
    BenchRow b;
    b.benchmark = f.text("benchmark", true);
    b.device = f.text("device", true);
    b.gateset = f.text("gateset");
    b.backend = f.text("compiler", true);
    f.integer("nqubits", 1, &b.nqubits);
    f.integer("instance", 0, &b.instance);
    f.seconds("median_seconds", &b.medianSeconds);
    f.seconds("min_seconds", &b.minSeconds, false);
    f.seconds("max_seconds", &b.maxSeconds, false);
    f.seconds("mapping_seconds", &b.mappingSeconds, false);
    f.seconds("routing_seconds", &b.routingSeconds, false);
    f.seconds("scheduling_seconds", &b.schedulingSeconds, false);
    // Optional quality fields (absent in older bench files;
    // -1 = not applicable).
    f.integer("swaps", -1, &b.swaps, false);
    f.integer("depth2q", -1, &b.depth2q, false);
    b.error = f.text("error");
    return b;
}

} // namespace

BenchRow
benchRowFromJson(const std::string &line)
{
    return benchRowFrom(RowFields("bench row json", line));
}

SweepRow
sweepRowFromJson(const std::string &line)
{
    RowFields f("sweep row json", line);
    SweepRow r;
    r.experiment = f.text("experiment");
    r.benchmark = f.text("benchmark", true);
    r.device = f.text("device", true);
    r.gateset = f.text("gateset");
    r.backend = f.text("compiler", true);
    f.integer("nqubits", 1, &r.nqubits);
    f.integer("instance", 0, &r.instance);
    // toJson() writes every metric, so each one is required.
    const int anyInt = std::numeric_limits<int>::min();
    CompilationMetrics &m = r.metrics;
    f.integer("swaps", anyInt, &m.swaps);
    f.integer("dressed", anyInt, &m.dressed);
    f.integer("native2q", anyInt, &m.native2q);
    f.integer("depth2q", anyInt, &m.depth2q);
    f.integer("depthall", anyInt, &m.depthAll);
    f.integer("native2q_nomap", anyInt, &m.native2qNoMap);
    f.integer("depth2q_nomap", anyInt, &m.depth2qNoMap);
    f.integer("depthall_nomap", anyInt, &m.depthAllNoMap);
    f.seconds("seconds", &r.seconds);
    f.seconds("mapping_seconds", &r.mappingSeconds);
    f.seconds("routing_seconds", &r.routingSeconds);
    f.seconds("scheduling_seconds", &r.schedulingSeconds);
    r.error = f.text("error");
    return r;
}

std::vector<BenchRow>
parseBenchJson(std::istream &in)
{
    std::vector<BenchRow> rows;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find("\"median_seconds\"") == std::string::npos)
            continue;  // header / footer lines
        // Row lines are array elements: drop the one separator.
        size_t last = line.find_last_not_of(" \t\r");
        if (last != std::string::npos && line[last] == ',')
            line.erase(last, 1);
        rows.push_back(benchRowFrom(RowFields(
            "bench json line " + std::to_string(lineno), line)));
    }
    return rows;
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
