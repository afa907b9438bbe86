/**
 * @file
 * Unit + property tests for the QAP mapping layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "device/devices.h"
#include "ham/models.h"
#include "qap/anneal.h"
#include "qap/placement.h"
#include "qap/tabu.h"
#include "testgen/random_topology.h"

using namespace tqan;
using namespace tqan::qap;

TEST(Qap, FlowMatrixCountsInteractions)
{
    ham::TwoLocalHamiltonian h(4);
    h.addPair(0, 1, 0, 0, 1.0);
    h.addPair(1, 2, 0, 0, 1.0);
    auto f = flowMatrix(h);
    EXPECT_EQ(f[0][1], 1.0);
    EXPECT_EQ(f[1][0], 1.0);
    EXPECT_EQ(f[1][2], 1.0);
    EXPECT_EQ(f[0][2], 0.0);
}

TEST(Qap, CostOnLineDevice)
{
    ham::TwoLocalHamiltonian h(4);
    h.addPair(0, 1, 0, 0, 1.0);
    h.addPair(1, 2, 0, 0, 1.0);
    h.addPair(2, 3, 0, 0, 1.0);
    auto f = flowMatrix(h);
    device::Topology topo = device::line(4);
    // Identity placement: every pair adjacent, cost 3.
    EXPECT_DOUBLE_EQ(qapCost(f, topo, {0, 1, 2, 3}), 3.0);
    // Worst-ish placement.
    EXPECT_GT(qapCost(f, topo, {0, 2, 1, 3}), 3.0);
}

TEST(Qap, InvertAndValidate)
{
    Placement p{3, 0, 2};
    EXPECT_TRUE(placementIsValid(p, 4));
    auto inv = invertPlacement(p, 4);
    EXPECT_EQ(inv[3], 0);
    EXPECT_EQ(inv[0], 1);
    EXPECT_EQ(inv[2], 2);
    EXPECT_EQ(inv[1], -1);
    EXPECT_FALSE(placementIsValid({0, 0}, 4));    // duplicate
    EXPECT_FALSE(placementIsValid({0, 9}, 4));    // out of range
}

TEST(Tabu, FindsOptimalChainEmbedding)
{
    // NN chain flow on a line device: the optimum is a line order
    // with cost = number of pairs.
    ham::TwoLocalHamiltonian h(6);
    for (int i = 0; i + 1 < 6; ++i)
        h.addPair(i, i + 1, 0, 0, 1.0);
    auto f = flowMatrix(h);
    device::Topology topo = device::line(6);
    Placement p = bestOfTabu(f, topo, 21, 5);
    EXPECT_TRUE(placementIsValid(p, 6));
    EXPECT_DOUBLE_EQ(qapCost(f, topo, p), 5.0);
}

class TabuProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TabuProperty, NeverWorseThanRandomStart)
{
    std::mt19937_64 rng(GetParam() + 500);
    auto h = ham::nnnHeisenberg(10, rng);
    auto f = flowMatrix(h);
    device::Topology topo = device::grid(4, 4);

    Placement tabu = tabuSearchQap(f, topo, rng);
    EXPECT_TRUE(placementIsValid(tabu, topo.numQubits()));

    double worst = 0.0;
    for (int t = 0; t < 10; ++t) {
        Placement r = randomPlacement(10, 16, rng);
        worst = std::max(worst, qapCost(f, topo, r));
    }
    EXPECT_LE(qapCost(f, topo, tabu), worst);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabuProperty, ::testing::Range(0, 8));

TEST(Tabu, RejectsOversizedCircuit)
{
    linalg::FlatMatrix f(10, 10);
    device::Topology topo = device::line(5);
    std::mt19937_64 rng(1);
    EXPECT_THROW(tabuSearchQap(f, topo, rng), std::invalid_argument);
}

TEST(Anneal, ImprovesOverWorstCase)
{
    std::mt19937_64 rng(22);
    auto h = ham::nnnIsing(8, rng);
    auto f = flowMatrix(h);
    device::Topology topo = device::grid(3, 3);
    Placement p = annealQap(f, topo, rng);
    EXPECT_TRUE(placementIsValid(p, 9));
    // The chain NNN model on a 3x3 grid admits cost well below the
    // random average (~2x pairs); sanity bound only.
    EXPECT_LT(qapCost(f, topo, p), 2.5 * h.pairs().size());
}

TEST(Placement, GreedyValidAndCompact)
{
    std::mt19937_64 rng(23);
    auto h = ham::nnnHeisenberg(12, rng);
    device::Topology topo = device::montreal27();
    Placement p = greedyPlacement(h.interactionGraph(), topo);
    EXPECT_TRUE(placementIsValid(p, 27));
}

TEST(Placement, LinePlacementIsPathLike)
{
    device::Topology topo = device::grid(4, 5);
    Placement p = linePlacement(10, topo);
    EXPECT_TRUE(placementIsValid(p, 20));
    // Consecutive placements should mostly be adjacent.
    int adjacent = 0;
    for (int i = 0; i + 1 < 10; ++i)
        if (topo.connected(p[i], p[i + 1]))
            ++adjacent;
    EXPECT_GE(adjacent, 7);
}

TEST(Placement, IdentityAndRandom)
{
    EXPECT_EQ(identityPlacement(3), (Placement{0, 1, 2}));
    std::mt19937_64 rng(24);
    Placement r = randomPlacement(5, 9, rng);
    EXPECT_TRUE(placementIsValid(r, 9));
    EXPECT_THROW(randomPlacement(10, 5, rng), std::invalid_argument);
}

TEST(QapInstance, HopDiameterDecidesExactnessLikeTheScan)
{
    // Against a topology the distance side of the exactness test is
    // Topology::hopDiameter() instead of an O(N^2) scan; the integral
    // path's decision must be the scan's on every built-in device,
    // also for flows whose 8 F D sits right at the 2^53 bound.
    for (const char *spec :
         {"montreal", "sycamore", "aspen", "manhattan", "line:2",
          "line:9", "ring:10", "grid:4x7", "heavyhex:3", "heavyhex:9"}) {
        SCOPED_TRACE(spec);
        device::Topology topo = device::deviceByName(spec);
        const linalg::FlatMatrix &hops = topo.hopDistances();
        const double d = exactMaxDistance(hops);
        ASSERT_FALSE(std::isnan(d));
        EXPECT_EQ(topo.hopDiameter(), d);

        const int n = std::min(topo.numQubits(), 12);
        std::mt19937_64 rng(7);
        linalg::FlatMatrix counts(n, n);
        std::uniform_int_distribution<int> pick(0, n - 1);
        for (int k = 0; k < 2 * n; ++k) {
            int i = pick(rng), j = pick(rng);
            if (i != j) {
                counts[i][j] += 1.0;
                counts[j][i] += 1.0;
            }
        }
        // One pair of weight w: F = w, exact iff 8 w D < 2^53.
        const double edge = std::ceil(9007199254740992.0 / (8.0 * d));
        std::vector<linalg::FlatMatrix> flows = {counts};
        for (double w : {edge - 1.0, edge, 0.5}) {
            linalg::FlatMatrix f(n, n);
            f[0][1] = f[1][0] = w;
            flows.push_back(f);
        }
        for (size_t k = 0; k < flows.size(); ++k)
            EXPECT_EQ(QapInstance(flows[k], topo).exactArithmetic(),
                      QapInstance(flows[k], hops).exactArithmetic())
                << "flow " << k;
        EXPECT_TRUE(QapInstance(flows[1], topo).exactArithmetic());
        EXPECT_FALSE(QapInstance(flows[2], topo).exactArithmetic());
    }
    // A disconnected coupling graph never gets a hop matrix (it
    // would need an "unreachable" entry), so no such matrix can reach
    // the topology path.
    EXPECT_THROW(testgen::topologyFromSpec("custom:4:0-1,2-3"),
                 std::invalid_argument);
}
