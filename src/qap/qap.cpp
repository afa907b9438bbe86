#include "qap/qap.h"

#include <algorithm>
#include <stdexcept>

namespace tqan {
namespace qap {

std::vector<int>
invertPlacement(const Placement &p, int deviceQubits)
{
    std::vector<int> inv(deviceQubits, -1);
    for (size_t i = 0; i < p.size(); ++i)
        inv[p[i]] = static_cast<int>(i);
    return inv;
}

bool
placementIsValid(const Placement &p, int deviceQubits)
{
    std::vector<char> used(deviceQubits, 0);
    for (int loc : p) {
        if (loc < 0 || loc >= deviceQubits || used[loc])
            return false;
        used[loc] = 1;
    }
    return true;
}

linalg::FlatMatrix
flowMatrix(const ham::TwoLocalHamiltonian &h)
{
    int n = h.numQubits();
    linalg::FlatMatrix f(n, n);
    for (const auto &t : h.pairs()) {
        f[t.u][t.v] += 1.0;
        f[t.v][t.u] += 1.0;
    }
    return f;
}

linalg::FlatMatrix
flowMatrixOf(const qcir::Circuit &c)
{
    int n = c.numQubits();
    linalg::FlatMatrix f(n, n);
    for (const auto &o : c.ops()) {
        if (o.isTwoQubit()) {
            f[o.q0][o.q1] += 1.0;
            f[o.q1][o.q0] += 1.0;
        }
    }
    return f;
}

graph::Graph
interactionGraphOf(const qcir::Circuit &c)
{
    graph::Graph g(c.numQubits());
    for (const auto &o : c.ops())
        if (o.isTwoQubit() && !g.hasEdge(o.q0, o.q1))
            g.addEdge(o.q0, o.q1);
    return g;
}

double
qapCost(const linalg::FlatMatrix &flow,
        const device::Topology &topo, const Placement &p)
{
    return qapCostMatrix(flow, topo.hopDistances(), p);
}

double
qapCostMatrix(const linalg::FlatMatrix &flow,
              const linalg::FlatMatrix &dist,
              const Placement &p)
{
    if (!placementIsValid(p, dist.rows()))
        throw std::invalid_argument("qapCostMatrix: invalid placement");
    int n = flow.rows();
    double c = 0.0;
    for (int i = 0; i < n; ++i) {
        const double *frow = flow[i];
        const double *drow = dist[p[i]];
        for (int j = i + 1; j < n; ++j)
            if (frow[j] != 0.0)
                c += frow[j] * drow[p[j]];
    }
    return c;
}

} // namespace qap
} // namespace tqan
