#include "device/devices.h"

#include <map>
#include <stdexcept>
#include <string>

#include "core/limits.h"
#include "service/json.h"

namespace tqan {
namespace device {

using graph::Graph;

Topology
grid(int rows, int cols)
{
    Graph g(rows * cols);
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                g.addEdge(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                g.addEdge(id(r, c), id(r + 1, c));
        }
    }
    return Topology("grid" + std::to_string(rows) + "x" +
                        std::to_string(cols),
                    g);
}

Topology
line(int n)
{
    Graph g(n);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1);
    return Topology("line" + std::to_string(n), g);
}

Topology
ring(int n)
{
    Graph g(n);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1);
    if (n > 2)
        g.addEdge(n - 1, 0);
    return Topology("ring" + std::to_string(n), g);
}

Topology
allToAll(int n)
{
    Graph g(n);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            g.addEdge(i, j);
    return Topology("alltoall" + std::to_string(n), g);
}

Topology
cube(int nx, int ny, int nz)
{
    Graph g(nx * ny * nz);
    auto id = [ny, nz](int x, int y, int z) {
        return (x * ny + y) * nz + z;
    };
    for (int x = 0; x < nx; ++x) {
        for (int y = 0; y < ny; ++y) {
            for (int z = 0; z < nz; ++z) {
                if (x + 1 < nx)
                    g.addEdge(id(x, y, z), id(x + 1, y, z));
                if (y + 1 < ny)
                    g.addEdge(id(x, y, z), id(x, y + 1, z));
                if (z + 1 < nz)
                    g.addEdge(id(x, y, z), id(x, y, z + 1));
            }
        }
    }
    return Topology("cube" + std::to_string(nx) + "x" +
                        std::to_string(ny) + "x" + std::to_string(nz),
                    g);
}

Topology
heavyHex(int d)
{
    if (d < 3 || d % 2 == 0)
        throw std::invalid_argument("heavyHex: d must be odd and >= 3");

    // d qubit rows.  Interior rows have width 2d+1 (columns 0..2d);
    // the first row has width 2d at columns 0..2d-1 and the last row
    // has width 2d aligned so that it reaches the connectors of the
    // final gap.  Gaps alternate connector columns 0,4,8,... and
    // 2,6,10,...; each connector is its own qubit (the "heavy" part).
    // d = 5 reproduces the 65-qubit IBMQ Manhattan layout exactly.
    int rows = d;
    int gaps = rows - 1;

    // Row column ranges.
    std::vector<std::pair<int, int>> span(rows);  // [first, last] col
    for (int r = 0; r < rows; ++r)
        span[r] = {0, 2 * d};
    span[0] = {0, 2 * d - 1};
    span[rows - 1] =
        ((gaps - 1) % 2 == 1) ? std::pair<int, int>{1, 2 * d}
                              : std::pair<int, int>{0, 2 * d - 1};

    // Assign indices: row qubits, then the connectors of the gap
    // below, row by row (matching IBM's numbering style).
    std::map<std::pair<int, int>, int> rowq;  // (row, col) -> index
    int next = 0;
    std::vector<std::vector<std::pair<int, int>>> connectors(gaps);
    for (int r = 0; r < rows; ++r) {
        for (int c = span[r].first; c <= span[r].second; ++c)
            rowq[{r, c}] = next++;
        if (r < gaps) {
            int start = (r % 2 == 0) ? 0 : 2;
            for (int c = start; c <= 2 * d; c += 4) {
                if (c >= span[r].first && c <= span[r].second &&
                    c >= span[r + 1].first && c <= span[r + 1].second) {
                    connectors[r].push_back({next++, c});
                }
            }
        }
    }

    Graph g(next);
    for (int r = 0; r < rows; ++r)
        for (int c = span[r].first; c < span[r].second; ++c)
            g.addEdge(rowq[{r, c}], rowq[{r, c + 1}]);
    for (int r = 0; r < gaps; ++r) {
        for (const auto &[q, c] : connectors[r]) {
            g.addEdge(rowq[{r, c}], q);
            g.addEdge(q, rowq[{r + 1, c}]);
        }
    }
    return Topology("heavyhex" + std::to_string(d), g);
}

Topology
sycamore54()
{
    // 54-qubit square lattice patch (see DESIGN.md: the public
    // Sycamore coupling graph is a square lattice drawn diagonally;
    // a 6x9 patch preserves node count, bulk degree 4 and diameter
    // class).
    Topology t = grid(6, 9);
    return Topology("sycamore54", t.coupling());
}

Topology
montreal27()
{
    // Published coupling list of ibmq_montreal (27-qubit Falcon).
    static const std::vector<graph::Edge> kEdges = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26},
    };
    return Topology("montreal27", Graph(27, kEdges));
}

Topology
aspen16()
{
    // Two octagons (0..7 and 8..15) joined by two couplers.
    Graph g(16);
    for (int i = 0; i < 8; ++i)
        g.addEdge(i, (i + 1) % 8);
    for (int i = 0; i < 8; ++i)
        g.addEdge(8 + i, 8 + (i + 1) % 8);
    g.addEdge(1, 14);
    g.addEdge(2, 13);
    return Topology("aspen16", g);
}

Topology
manhattan65()
{
    Topology t = heavyHex(5);
    if (t.numQubits() != 65)
        throw std::logic_error("manhattan65: expected 65 qubits");
    return Topology("manhattan65", t.coupling());
}

namespace {

/** Strict positive decimal: digits only, like the custom:N and
 * Hamiltonian parsers (no sign, no blanks). */
int
parsedInt(const std::string &spec, const std::string &body)
{
    int v = 0;
    if (!service::parseI32(body, &v) || v <= 0)
        throw std::invalid_argument("deviceByName: bad parameter in '" +
                                    spec + "'");
    return v;
}

/** Parametric specs share the repo-wide topology ceiling with
 * testgen's custom:N parser -- one bound, one header
 * (core/limits.h), so no spec family can request an absurd
 * allocation. */
void
checkTopologySize(const std::string &spec, long long qubits)
{
    if (qubits > core::kMaxTopologyQubits)
        throw std::invalid_argument(
            "deviceByName: '" + spec + "' asks for " +
            std::to_string(qubits) + " qubits (limit " +
            std::to_string(core::kMaxTopologyQubits) + ")");
}

} // namespace

Topology
deviceByName(const std::string &name)
{
    if (name == "montreal")
        return montreal27();
    if (name == "sycamore")
        return sycamore54();
    if (name == "aspen")
        return aspen16();
    if (name == "manhattan")
        return manhattan65();
    if (name.rfind("line:", 0) == 0) {
        int n = parsedInt(name, name.substr(5));
        checkTopologySize(name, n);
        return line(n);
    }
    if (name.rfind("ring:", 0) == 0) {
        int n = parsedInt(name, name.substr(5));
        checkTopologySize(name, n);
        return ring(n);
    }
    if (name.rfind("grid:", 0) == 0) {
        std::string body = name.substr(5);
        size_t x = body.find('x');
        if (x == std::string::npos)
            throw std::invalid_argument(
                "deviceByName: expected grid:RxC, got '" + name + "'");
        int rows = parsedInt(name, body.substr(0, x));
        int cols = parsedInt(name, body.substr(x + 1));
        checkTopologySize(name, static_cast<long long>(rows) * cols);
        return grid(rows, cols);
    }
    if (name.rfind("heavyhex:", 0) == 0) {
        int d = parsedInt(name, name.substr(9));
        // qubit count of distance d is (5d^2 - 2d - 1) / 2-ish;
        // bound via the generous 3d^2 envelope before building.
        checkTopologySize(name, 3LL * d * d);
        return heavyHex(d);
    }
    throw std::invalid_argument(
        "deviceByName: unknown device '" + name +
        "' (expected montreal | sycamore | aspen | manhattan | "
        "line:N | ring:N | grid:RxC | heavyhex:D)");
}

GateSet
gateSetByName(const std::string &name)
{
    if (name == "cnot")
        return GateSet::Cnot;
    if (name == "cz")
        return GateSet::Cz;
    if (name == "iswap")
        return GateSet::ISwap;
    if (name == "syc")
        return GateSet::Syc;
    throw std::invalid_argument(
        "gateSetByName: unknown gate set '" + name +
        "' (expected cnot | cz | iswap | syc)");
}

GateSet
defaultGateSet(const std::string &deviceName)
{
    if (deviceName == "sycamore")
        return GateSet::Syc;
    if (deviceName == "aspen")
        return GateSet::ISwap;
    return GateSet::Cnot;
}

} // namespace device
} // namespace tqan
