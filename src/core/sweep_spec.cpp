#include "core/sweep.h"

#include <istream>
#include <sstream>
#include <stdexcept>

#include "core/backend.h"
#include "core/hash.h"
#include "core/router_registry.h"
#include "core/sweep_internal.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "service/json.h"

namespace tqan {
namespace core {

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

    // A family's override of a global list or count, else the global.
    auto forFamily = [](const auto &overrides, Benchmark b,
                        const auto &global) -> const auto & {
        auto it = overrides.find(b);
        return it != overrides.end() ? it->second : global;
    };
    auto backendsOf = [&](Benchmark b) -> const auto & {
        return forFamily(spec.backendsFor, b, spec.backends);
    };

    for (Benchmark b : spec.benchmarks) {
        const auto &sizes = forFamily(spec.sizesFor, b, spec.sizes);
        const int instances =
            forFamily(spec.instancesFor, b, spec.instances);
        if (sizes.empty())
            throw std::invalid_argument(
                "expandSweep: no sizes for " + benchmarkName(b));
        if (backendsOf(b).empty())
            throw std::invalid_argument(
                "expandSweep: no backends for " + benchmarkName(b));
        if (instances < 1)
            throw std::invalid_argument(
                "expandSweep: instances < 1 for " +
                benchmarkName(b));
        for (int n : sizes)
            for (int inst = 0; inst < instances; ++inst)
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

} // namespace core
} // namespace tqan
