#include "testgen/random_topology.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/limits.h"
#include "device/devices.h"
#include "service/json.h"

namespace tqan {
namespace testgen {

device::Topology
randomConnectedTopology(std::mt19937_64 &rng,
                        const TopologyOptions &opt)
{
    if (opt.minQubits < 2 || opt.maxQubits < opt.minQubits)
        throw std::invalid_argument(
            "randomConnectedTopology: need 2 <= minQubits <= "
            "maxQubits");
    if (opt.maxDegree < 2)
        throw std::invalid_argument(
            "randomConnectedTopology: maxDegree < 2 cannot stay "
            "connected beyond 2 qubits");
    std::uniform_int_distribution<int> nd(opt.minQubits,
                                          opt.maxQubits);
    int n = nd(rng);

    graph::Graph g(n);
    std::vector<int> degree(n, 0);

    // Random spanning tree: attach each new node to a uniformly
    // chosen earlier node with spare degree (one always exists:
    // a path uses at most degree 2 <= maxDegree).
    for (int v = 1; v < n; ++v) {
        std::vector<int> candidates;
        for (int u = 0; u < v; ++u)
            if (degree[u] < opt.maxDegree)
                candidates.push_back(u);
        if (candidates.empty())
            candidates.push_back(v - 1);  // unreachable; safety net
        std::uniform_int_distribution<size_t> pick(
            0, candidates.size() - 1);
        int u = candidates[pick(rng)];
        g.addEdge(u, v);
        ++degree[u];
        ++degree[v];
    }

    // Densify with random extra couplers under the degree cap.
    int extra = static_cast<int>(opt.extraEdgeFraction * n);
    std::uniform_int_distribution<int> qd(0, n - 1);
    for (int k = 0; k < extra; ++k) {
        int u = qd(rng), v = qd(rng);
        if (u == v || g.hasEdge(u, v) ||
            degree[u] >= opt.maxDegree ||
            degree[v] >= opt.maxDegree)
            continue;
        g.addEdge(u, v);
        ++degree[u];
        ++degree[v];
    }

    std::ostringstream name;
    name << "rand" << n << "d" << opt.maxDegree;
    return device::Topology(name.str(), g);
}

std::string
topologySpec(const device::Topology &topo)
{
    std::ostringstream os;
    os << "custom:" << topo.numQubits() << ":";
    bool first = true;
    for (const auto &e : topo.edges()) {
        if (!first)
            os << ",";
        first = false;
        os << e.first << "-" << e.second;
    }
    return os.str();
}

device::Topology
topologyFromSpec(const std::string &spec)
{
    if (spec.compare(0, 7, "custom:") != 0)
        return device::deviceByName(spec);
    size_t colon = spec.find(':', 7);
    if (colon == std::string::npos)
        throw std::invalid_argument(
            "topologyFromSpec: expected custom:N:edges, got '" +
            spec + "'");
    // Untrusted input (specs arrive over the service protocol too):
    // every numeric field goes through the JSON codec's strict
    // full-consumption parser, so "4junk" or " 4" fail.  It takes a
    // leading '-', which the range checks below reject.
    constexpr int kMaxQubits = core::kMaxTopologyQubits;
    int n = 0;
    if (!service::parseI32(spec.substr(7, colon - 7), &n) || n <= 0 ||
        n > kMaxQubits)
        throw std::invalid_argument(
            "topologyFromSpec: bad qubit count in '" + spec +
            "' (expected 1.." + std::to_string(kMaxQubits) + ")");
    graph::Graph g(n);
    std::string edges = spec.substr(colon + 1);
    std::istringstream es(edges);
    std::string tok;
    while (std::getline(es, tok, ',')) {
        if (tok.empty())
            continue;
        size_t dash = tok.find('-');
        if (dash == std::string::npos)
            throw std::invalid_argument(
                "topologyFromSpec: bad edge '" + tok +
                "' (expected U-V)");
        int u = -1, v = -1;
        if (!service::parseI32(tok.substr(0, dash), &u) ||
            !service::parseI32(tok.substr(dash + 1), &v) || u < 0 ||
            v < 0)
            throw std::invalid_argument(
                "topologyFromSpec: edge '" + tok +
                "' is not a pair of qubit indices (expected U-V)");
        if (u >= n || v >= n || u == v)
            throw std::invalid_argument(
                "topologyFromSpec: edge '" + tok +
                "' out of range for " + std::to_string(n) +
                " qubits");
        if (!g.hasEdge(u, v))
            g.addEdge(u, v);
    }
    return device::Topology("custom" + std::to_string(n), g);
}

} // namespace testgen
} // namespace tqan
