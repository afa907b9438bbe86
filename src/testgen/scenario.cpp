#include "testgen/scenario.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "service/json.h"

namespace tqan {
namespace testgen {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** U(lo, hi) coefficient draw (the paper samples from (0, pi)). */
double
coeff(std::mt19937_64 &rng, double lo = 0.05, double hi = kPi - 0.05)
{
    std::uniform_real_distribution<double> d(lo, hi);
    return d(rng);
}

ham::TwoLocalHamiltonian
randomGraphHeisenberg(int n, std::mt19937_64 &rng)
{
    // Dense enough to be connected most of the time but not a
    // clique; every present edge gets independent XX/YY/ZZ weights.
    double p = std::min(1.0, 2.0 / std::max(1, n - 1) + 0.15);
    graph::Graph g = graph::erdosRenyi(n, p, rng);
    ham::TwoLocalHamiltonian h(n);
    for (const auto &e : g.edges())
        h.addPair(e.first, e.second, coeff(rng), coeff(rng),
                  coeff(rng));
    for (int q = 0; q < n; ++q)
        h.addField(q, ham::Axis::X, coeff(rng, 0.05, 1.0));
    return h;
}

ham::TwoLocalHamiltonian
disconnectedHam(int n, std::mt19937_64 &rng)
{
    // Two (or more) islands of ZZ+XX couplings with a qubit gap in
    // between; some qubits may carry no term at all.
    ham::TwoLocalHamiltonian h(n);
    int cut = n / 2;
    for (int q = 0; q + 1 < cut; ++q)
        h.addPair(q, q + 1, coeff(rng), 0.0, coeff(rng));
    for (int q = cut + (n > 3 ? 1 : 0); q + 1 < n; ++q)
        h.addPair(q, q + 1, 0.0, coeff(rng), coeff(rng));
    return h;
}

ham::TwoLocalHamiltonian
singleQubitOnly(int n, std::mt19937_64 &rng)
{
    ham::TwoLocalHamiltonian h(n);
    for (int q = 0; q < n; ++q) {
        h.addField(q, ham::Axis::X, coeff(rng, 0.05, 1.5));
        if (q % 2 == 0)
            h.addField(q, ham::Axis::Z, coeff(rng, 0.05, 1.5));
    }
    return h;
}

ham::TwoLocalHamiltonian
qaoaInstance(int n, std::mt19937_64 &rng)
{
    // MaxCut layer on a random 3-regular graph when n allows it,
    // otherwise on an Erdos-Renyi draw.
    graph::Graph g = (n >= 4 && (n * 3) % 2 == 0)
                         ? graph::randomRegularGraph(n, 3, rng)
                         : graph::erdosRenyi(n, 0.5, rng);
    return ham::qaoaLayer(g, coeff(rng, 0.1, kPi / 2),
                          coeff(rng, 0.1, kPi / 2));
}

/** Multiple-of-pi/4 coefficient: Clifford under trotterStep with
 * time = 1 (pairs use the coefficient directly, fields rotate by
 * -2 * coeff = -k*pi/2). */
double
cliffordCoeff(std::mt19937_64 &rng)
{
    return std::uniform_int_distribution<int>(1, 3)(rng) * kPi / 4.0;
}

ham::TwoLocalHamiltonian
cliffordChain(int n, std::mt19937_64 &rng)
{
    ham::TwoLocalHamiltonian h(n);
    for (int q = 0; q + 1 < n; ++q)
        h.addPair(q, q + 1, cliffordCoeff(rng), cliffordCoeff(rng),
                  cliffordCoeff(rng));
    for (int q = 0; q < n; ++q) {
        if (q % 2 == 0)
            h.addField(q, ham::Axis::X, cliffordCoeff(rng));
        else
            h.addField(q, ham::Axis::Z, cliffordCoeff(rng));
    }
    return h;
}

ham::TwoLocalHamiltonian
cliffordQaoa(int n, std::mt19937_64 &rng)
{
    // Diagonal (isDiagonal() == true) so diagonal-only backends
    // participate in the Clifford leg too.  Always a bounded-degree
    // regular graph (degree 4 when n is odd, so n*degree stays
    // even): this kind runs at 100-1000 qubits, where an
    // Erdos-Renyi p=0.5 draw would mean O(n^2) interaction pairs
    // and minutes-long compiles per scenario.
    graph::Graph g = (n >= 5)
                         ? graph::randomRegularGraph(
                               n, (n * 3) % 2 == 0 ? 3 : 4, rng)
                         : graph::erdosRenyi(n, 0.5, rng);
    ham::TwoLocalHamiltonian h(n);
    for (const auto &e : g.edges())
        h.addPair(e.first, e.second, 0.0, 0.0, cliffordCoeff(rng));
    for (int q = 0; q < n; ++q)
        h.addField(q, ham::Axis::X, cliffordCoeff(rng));
    return h;
}

/** Smallest structured device (grid or heavy-hex) fitting n
 * qubits. */
device::Topology
structuredTopology(int n, std::mt19937_64 &rng)
{
    if ((rng() & 1) == 0) {
        // Near-square grid, occasionally one column wider.
        int cols = 1;
        while (cols * cols < n)
            ++cols;
        cols += static_cast<int>(rng() % 2);
        int rows = (n + cols - 1) / cols;
        if (rows < 2) rows = 2;
        if (cols < 2) cols = 2;
        return device::grid(rows, cols);
    }
    for (int d = 3;; d += 2) {
        device::Topology t = device::heavyHex(d);
        if (t.numQubits() >= n)
            return t;
    }
}

} // namespace

std::string
scenarioKindName(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::HeisenbergChain: return "heisenberg_chain";
      case ScenarioKind::IsingChain: return "ising_chain";
      case ScenarioKind::XYChain: return "xy_chain";
      case ScenarioKind::RandomGraphHam: return "random_graph";
      case ScenarioKind::Qaoa: return "qaoa";
      case ScenarioKind::DisconnectedHam: return "disconnected";
      case ScenarioKind::SingleQubitOnly: return "single_qubit_only";
      case ScenarioKind::FullDevice: return "full_device";
      case ScenarioKind::CliffordChain: return "clifford_chain";
      case ScenarioKind::CliffordQaoa: return "clifford_qaoa";
    }
    return "?";
}

Scenario
randomScenario(std::uint64_t seed, const ScenarioOptions &opt)
{
    if (opt.minQubits < 2 || opt.maxQubits < opt.minQubits)
        throw std::invalid_argument(
            "randomScenario: need 2 <= minQubits <= maxQubits");
    if (opt.maxDeviceQubits < opt.maxQubits)
        throw std::invalid_argument(
            "randomScenario: maxDeviceQubits < maxQubits");

    // splitmix-style scramble so consecutive seeds diverge.
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32ULL);

    Scenario s;
    s.seed = seed;

    // Draw-order contract: with every new option at its default the
    // rng consumption below is identical to the legacy generator, so
    // historical seeds (and checked-in reproducers) replay
    // byte-for-byte.  New options only consume draws when enabled.
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    if (opt.cliffordOnly) {
        s.kind = std::uniform_int_distribution<int>(0, 1)(rng) == 0
                     ? ScenarioKind::CliffordChain
                     : ScenarioKind::CliffordQaoa;
    } else {
    bool adversarial = u01(rng) < opt.adversarialFraction;
    if (adversarial) {
        static const ScenarioKind kinds[] = {
            ScenarioKind::DisconnectedHam,
            ScenarioKind::SingleQubitOnly,
            ScenarioKind::FullDevice,
        };
        s.kind = kinds[std::uniform_int_distribution<int>(0, 2)(rng)];
    } else {
        static const ScenarioKind kinds[] = {
            ScenarioKind::HeisenbergChain,
            ScenarioKind::IsingChain,
            ScenarioKind::XYChain,
            ScenarioKind::RandomGraphHam,
            ScenarioKind::Qaoa,
        };
        s.kind = kinds[std::uniform_int_distribution<int>(0, 4)(rng)];
    }
    }

    std::uniform_int_distribution<int> nd(opt.minQubits,
                                          opt.maxQubits);
    int n = nd(rng);

    // Device: random connected topology at least as big as the
    // circuit; FullDevice pins the size to n exactly.  When
    // structuredFraction is enabled a slice of scenarios lands on
    // grid / heavy-hex devices instead (real-machine shapes).
    bool structured = opt.structuredFraction > 0.0 &&
                      s.kind != ScenarioKind::FullDevice &&
                      u01(rng) < opt.structuredFraction;
    if (structured) {
        s.topo = structuredTopology(n, rng);
    } else {
        TopologyOptions topt = opt.topology;
        topt.minQubits = n;
        topt.maxQubits = (s.kind == ScenarioKind::FullDevice)
                             ? n
                             : std::max(n, opt.maxDeviceQubits);
        s.topo = randomConnectedTopology(rng, topt);
    }

    ham::TwoLocalHamiltonian h(n);
    switch (s.kind) {
      case ScenarioKind::HeisenbergChain:
        h = ham::nnnHeisenberg(n, rng);
        break;
      case ScenarioKind::IsingChain:
        h = ham::nnnIsing(n, rng);
        break;
      case ScenarioKind::XYChain:
        h = ham::nnnXY(n, rng);
        break;
      case ScenarioKind::RandomGraphHam:
        h = randomGraphHeisenberg(n, rng);
        break;
      case ScenarioKind::Qaoa:
        h = qaoaInstance(n, rng);
        break;
      case ScenarioKind::DisconnectedHam:
        h = disconnectedHam(n, rng);
        break;
      case ScenarioKind::SingleQubitOnly:
        h = singleQubitOnly(n, rng);
        break;
      case ScenarioKind::FullDevice:
        // Full-device pressure with a chain model (every device
        // qubit is used; zero placement slack).
        h = ham::nnnHeisenberg(n, rng);
        break;
      case ScenarioKind::CliffordChain:
        h = cliffordChain(n, rng);
        break;
      case ScenarioKind::CliffordQaoa:
        h = cliffordQaoa(n, rng);
        break;
    }

    if (s.kind == ScenarioKind::CliffordChain ||
        s.kind == ScenarioKind::CliffordQaoa) {
        // time = 1 keeps every gate angle on the k*pi/4 lattice:
        // the whole Trotter step stays Clifford.
        s.time = 1.0;
    } else {
        std::uniform_real_distribution<double> td(0.2, 1.0);
        s.time = td(rng);
    }

    if (opt.withNoise) {
        s.withNoise = true;
        s.noiseSeed = rng();
        s.noiseLambda = 0.25 + 0.75 * u01(rng);
    }
    s.hamiltonian =
        std::make_shared<ham::TwoLocalHamiltonian>(std::move(h));
    s.step = std::make_shared<qcir::Circuit>(
        ham::trotterStep(*s.hamiltonian, s.time));

    std::ostringstream name;
    name << scenarioKindName(s.kind) << "/n=" << n
         << "/dev=" << s.topo.name() << "(" << s.topo.numQubits()
         << ")/seed=" << seed;
    s.name = name.str();
    return s;
}

std::string
toSpec(const Scenario &s)
{
    std::ostringstream os;
    os.precision(17);
    os << "# tqan-fuzz reproducer\n";
    os << "kind = " << scenarioKindName(s.kind) << "\n";
    os << "seed = " << s.seed << "\n";
    os << "time = " << s.time << "\n";
    os << "device = " << topologySpec(s.topo) << "\n";
    if (s.withNoise)
        os << "noise = " << s.noiseSeed << " " << s.noiseLambda
           << "\n";
    os << "hamiltonian:\n";
    os << ham::formatHamiltonian(*s.hamiltonian);
    return os.str();
}

Scenario
scenarioFromSpec(std::istream &in)
{
    Scenario s;
    s.kind = ScenarioKind::HeisenbergChain;
    bool haveDevice = false;
    std::string line;
    std::ostringstream hamText;
    bool inHam = false;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (inHam) {
            hamText << line << "\n";
            continue;
        }
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        size_t a = line.find_first_not_of(" \t\r");
        if (a == std::string::npos)
            continue;
        size_t b = line.find_last_not_of(" \t\r");
        line = line.substr(a, b - a + 1);
        if (line == "hamiltonian:") {
            inHam = true;
            continue;
        }
        auto bad = [lineNo](const std::string &what) {
            return std::invalid_argument("scenarioFromSpec: line " +
                                         std::to_string(lineNo) +
                                         ": " + what);
        };
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw bad("expected 'key = value', got '" + line + "'");
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        key = key.substr(0, key.find_last_not_of(" \t") + 1);
        size_t v = val.find_first_not_of(" \t");
        val = (v == std::string::npos) ? "" : val.substr(v);
        if (key == "kind") {
            // Informational; the Hamiltonian below is authoritative.
        } else if (key == "seed") {
            if (!service::parseU64(val, &s.seed))
                throw bad("bad seed '" + val + "'");
        } else if (key == "time") {
            if (!service::parseF64(val, &s.time))
                throw bad("bad time '" + val + "'");
        } else if (key == "device") {
            s.topo = topologyFromSpec(val);
            haveDevice = true;
        } else if (key == "noise") {
            size_t sp = val.find_first_of(" \t");
            size_t lam = val.find_first_not_of(" \t", sp);
            if (lam == std::string::npos ||
                !service::parseU64(val.substr(0, sp), &s.noiseSeed) ||
                !service::parseF64(val.substr(lam), &s.noiseLambda))
                throw bad("expected 'noise = <seed> <lambda>'");
            s.withNoise = true;
        } else {
            throw bad("unknown key '" + key + "'");
        }
    }
    if (!haveDevice)
        throw std::invalid_argument(
            "scenarioFromSpec: missing 'device =' line");
    if (hamText.str().empty())
        throw std::invalid_argument(
            "scenarioFromSpec: missing 'hamiltonian:' section");
    ham::TwoLocalHamiltonian h =
        ham::parseHamiltonian(hamText.str());
    s.hamiltonian =
        std::make_shared<ham::TwoLocalHamiltonian>(std::move(h));
    s.step = std::make_shared<qcir::Circuit>(
        ham::trotterStep(*s.hamiltonian, s.time));
    s.name = "replay/dev=" + s.topo.name() +
             "/seed=" + std::to_string(s.seed);
    return s;
}

Scenario
scenarioFromSpec(const std::string &text)
{
    std::istringstream is(text);
    return scenarioFromSpec(is);
}

} // namespace testgen
} // namespace tqan
