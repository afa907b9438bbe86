/**
 * @file
 * Unit tests for the device topologies.
 */

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "device/devices.h"
#include "testgen/random_topology.h"

using namespace tqan::device;

TEST(Topology, GridDistances)
{
    Topology t = grid(3, 4);
    EXPECT_EQ(t.numQubits(), 12);
    EXPECT_EQ(t.dist(0, 0), 0);
    EXPECT_EQ(t.dist(0, 3), 3);   // along the first row
    EXPECT_EQ(t.dist(0, 11), 5);  // manhattan distance
    EXPECT_TRUE(t.connected(0, 1));
    EXPECT_FALSE(t.connected(0, 2));
}

TEST(Topology, LineAndRing)
{
    Topology l = line(5);
    EXPECT_EQ(l.dist(0, 4), 4);
    Topology r = ring(6);
    EXPECT_EQ(r.dist(0, 3), 3);
    EXPECT_EQ(r.dist(0, 5), 1);
}

TEST(Topology, AllToAll)
{
    Topology t = allToAll(6);
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 6; ++j)
            EXPECT_EQ(t.dist(i, j), i == j ? 0 : 1);
}

TEST(Topology, CubeEdgeCount)
{
    // 5x3x2: 4*3*2 + 5*2*2 + 5*3*1 = 24 + 20 + 15 = 59 edges; this is
    // the Heisenberg-3D lattice of Table III (30 qubits).
    Topology t = cube(5, 3, 2);
    EXPECT_EQ(t.numQubits(), 30);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 59);
}

TEST(Topology, RejectsDisconnected)
{
    tqan::graph::Graph g(4, {{0, 1}, {2, 3}});
    EXPECT_THROW(Topology("bad", g), std::invalid_argument);
}

namespace {

void
expectHopDistancesMatchBfs(const Topology &t)
{
    const tqan::linalg::FlatMatrix &d = t.hopDistances();
    ASSERT_EQ(d.rows(), t.numQubits());
    ASSERT_EQ(d.cols(), t.numQubits());
    for (int s = 0; s < t.numQubits(); ++s) {
        std::vector<int> bfs = t.coupling().bfsDistances(s);
        for (int q = 0; q < t.numQubits(); ++q) {
            ASSERT_EQ(d[s][q], bfs[q]) << t.name() << " " << s << "->"
                                       << q;
            ASSERT_EQ(t.dist(s, q), bfs[q]);
        }
    }
}

} // namespace

TEST(Topology, HopDistancesMatchBfs)
{
    std::mt19937_64 rng(5);
    tqan::testgen::TopologyOptions opt;
    opt.maxQubits = 30;
    for (int trial = 0; trial < 10; ++trial)
        expectHopDistancesMatchBfs(
            tqan::testgen::randomConnectedTopology(rng, opt));
    expectHopDistancesMatchBfs(grid(5, 7));
    expectHopDistancesMatchBfs(heavyHex(3));
    expectHopDistancesMatchBfs(sycamore54());
}

TEST(Topology, CopiesShareOneMatrix)
{
    Topology t = grid(4, 4);
    Topology early = t;  // copied before the matrix exists
    const tqan::linalg::FlatMatrix *m = &early.hopDistances();
    EXPECT_EQ(&t.hopDistances(), m);
    Topology late = t;
    EXPECT_EQ(&late.hopDistances(), m);
    EXPECT_NE(&grid(4, 4).hopDistances(), m);  // equal, not shared
}

TEST(Topology, ConcurrentFirstUseBuildsOnce)
{
    Topology t = grid(12, 12);
    constexpr int kThreads = 8;
    std::vector<const tqan::linalg::FlatMatrix *> seen(kThreads);
    std::vector<std::thread> pool;
    for (int i = 0; i < kThreads; ++i)
        pool.emplace_back([&t, &seen, i]() {
            seen[i] = &t.hopDistances();
        });
    for (auto &th : pool)
        th.join();
    for (int i = 0; i < kThreads; ++i)
        EXPECT_EQ(seen[i], seen[0]);
    EXPECT_EQ(t.dist(0, 143), 22);
}

TEST(Devices, Sycamore54)
{
    Topology t = sycamore54();
    EXPECT_EQ(t.numQubits(), 54);
    // Square-lattice bulk degree 4.
    int deg4 = 0;
    for (int q = 0; q < 54; ++q)
        if (static_cast<int>(t.neighbors(q).size()) == 4)
            ++deg4;
    EXPECT_GT(deg4, 20);
}

TEST(Devices, Montreal27)
{
    Topology t = montreal27();
    EXPECT_EQ(t.numQubits(), 27);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 28);
    // Heavy-hex: maximum degree 3.
    for (int q = 0; q < 27; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
}

TEST(Devices, Aspen16)
{
    Topology t = aspen16();
    EXPECT_EQ(t.numQubits(), 16);
    // Two octagons (16 ring edges) + 2 bridges.
    EXPECT_EQ(static_cast<int>(t.edges().size()), 18);
    for (int q = 0; q < 16; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
}

TEST(Devices, HeavyHex5IsManhattan)
{
    Topology t = manhattan65();
    EXPECT_EQ(t.numQubits(), 65);
    // Heavy-hex degree bound.
    for (int q = 0; q < 65; ++q)
        EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
    EXPECT_EQ(static_cast<int>(t.edges().size()), 72);
}

TEST(Devices, HeavyHexRejectsEven)
{
    EXPECT_THROW(heavyHex(4), std::invalid_argument);
    EXPECT_THROW(heavyHex(1), std::invalid_argument);
}

TEST(Devices, GateSetNames)
{
    EXPECT_EQ(gateSetName(GateSet::Cnot), "CNOT");
    EXPECT_EQ(gateSetName(GateSet::Syc), "SYC");
    EXPECT_EQ(gateSetName(GateSet::ISwap), "iSWAP");
    EXPECT_EQ(gateSetName(GateSet::Cz), "CZ");
}
