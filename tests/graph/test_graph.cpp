/**
 * @file
 * Unit + property tests for the graph toolkit.
 */

#include <gtest/gtest.h>

#include <random>

#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/random_graph.h"

using namespace tqan::graph;

TEST(Graph, BasicConstruction)
{
    Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
    EXPECT_EQ(g.numNodes(), 4);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, RejectsBadEdges)
{
    Graph g(3, {{0, 1}});
    EXPECT_THROW(g.addEdge(0, 0), std::invalid_argument);
    EXPECT_THROW(g.addEdge(0, 1), std::invalid_argument);
    EXPECT_THROW(g.addEdge(0, 5), std::out_of_range);
    EXPECT_THROW(g.addEdge(-1, 1), std::out_of_range);
}

TEST(Graph, BfsDistances)
{
    Graph g(5, {{0, 1}, {1, 2}, {2, 3}});
    auto d = g.bfsDistances(0);
    EXPECT_EQ(d[0], 0);
    EXPECT_EQ(d[3], 3);
    EXPECT_EQ(d[4], -1);  // disconnected
    EXPECT_FALSE(g.isConnected());
}

TEST(Coloring, PathNeedsTwoColors)
{
    Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
    auto c = greedyColoring(g);
    EXPECT_TRUE(coloringIsValid(g, c));
    EXPECT_EQ(numColors(c), 2);
}

TEST(Coloring, CompleteGraphNeedsN)
{
    Graph g(5);
    for (int i = 0; i < 5; ++i)
        for (int j = i + 1; j < 5; ++j)
            g.addEdge(i, j);
    auto c = greedyColoring(g);
    EXPECT_TRUE(coloringIsValid(g, c));
    EXPECT_EQ(numColors(c), 5);
}

TEST(Coloring, EmptyGraph)
{
    Graph g(4);
    auto c = greedyColoring(g);
    EXPECT_TRUE(coloringIsValid(g, c));
    EXPECT_EQ(numColors(c), 1);
}

class ColoringProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ColoringProperty, ValidOnRandomGraphs)
{
    std::mt19937_64 rng(GetParam());
    Graph g = erdosRenyi(20, 0.25, rng);
    auto c = greedyColoring(g);
    EXPECT_TRUE(coloringIsValid(g, c));
    // Greedy largest-first uses at most maxdeg + 1 colors.
    int maxdeg = 0;
    for (int v = 0; v < g.numNodes(); ++v)
        maxdeg = std::max(maxdeg, g.degree(v));
    EXPECT_LE(numColors(c), maxdeg + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringProperty,
                         ::testing::Range(0, 20));

class RegularGraphProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RegularGraphProperty, DegreesAndSimplicity)
{
    std::mt19937_64 rng(GetParam() + 100);
    for (int d : {3, 4}) {
        int n = 12;
        Graph g = randomRegularGraph(n, d, rng);
        EXPECT_EQ(g.numEdges(), n * d / 2);
        for (int v = 0; v < n; ++v)
            EXPECT_EQ(g.degree(v), d);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegularGraphProperty,
                         ::testing::Range(0, 10));

TEST(RegularGraph, RejectsInvalidParameters)
{
    std::mt19937_64 rng(6);
    EXPECT_THROW(randomRegularGraph(5, 3, rng),
                 std::invalid_argument);  // odd n*d
    EXPECT_THROW(randomRegularGraph(4, 4, rng),
                 std::invalid_argument);  // d >= n
}
