/**
 * @file
 * Regression tests of the custom:N:edges topology-spec parser.
 * Edge tokens used to go through bare std::stoi prefix parses, so
 * "custom:4:0-1junk" built a 0-1 edge silently; every numeric field
 * is now digits-only or an error.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "testgen/random_topology.h"

using namespace tqan;

TEST(TopologySpec, RoundTripsACustomSpec)
{
    device::Topology t =
        testgen::topologyFromSpec("custom:4:0-1,1-2,2-3,0-3");
    EXPECT_EQ(t.numQubits(), 4);
    EXPECT_EQ(t.edges().size(), 4u);
    device::Topology again =
        testgen::topologyFromSpec(testgen::topologySpec(t));
    EXPECT_EQ(again.numQubits(), t.numQubits());
    EXPECT_EQ(again.edges(), t.edges());
}

TEST(TopologySpec, DelegatesNamedDevices)
{
    EXPECT_EQ(testgen::topologyFromSpec("line:5").numQubits(), 5);
}

TEST(TopologySpec, RejectsJunkTailedEdgeTokens)
{
    // The former silent-truncation bug: "0-1junk" parsed as 0-1.
    for (const char *bad :
         {"custom:4:0-1junk", "custom:4:junk0-1", "custom:4:0-1.5",
          "custom:4:0x1-2", "custom:4:0- 1", "custom:4: 0-1",
          "custom:4:+0-1", "custom:4:0-+1"}) {
        EXPECT_THROW(testgen::topologyFromSpec(bad),
                     std::invalid_argument)
            << "spec '" << bad << "' was accepted";
    }
}

TEST(TopologySpec, RejectsNegativeAndMalformedEdges)
{
    for (const char *bad :
         {"custom:4:-1-2", "custom:4:1--2", "custom:4:0",
          "custom:4:0-", "custom:4:-1"}) {
        EXPECT_THROW(testgen::topologyFromSpec(bad),
                     std::invalid_argument)
            << "spec '" << bad << "' was accepted";
    }
}

TEST(TopologySpec, RejectsOutOfRangeAndSelfEdges)
{
    EXPECT_THROW(testgen::topologyFromSpec("custom:4:0-4"),
                 std::invalid_argument);
    EXPECT_THROW(testgen::topologyFromSpec("custom:4:2-2"),
                 std::invalid_argument);
}

TEST(TopologySpec, RejectsBadQubitCounts)
{
    for (const char *bad :
         {"custom:0:", "custom:-3:", "custom:4junk:0-1",
          "custom:4.5:0-1", "custom::0-1", "custom:99999999:",
          "custom:4", "custom:+4:0-1", "custom:99999999999:"}) {
        EXPECT_THROW(testgen::topologyFromSpec(bad),
                     std::invalid_argument)
            << "spec '" << bad << "' was accepted";
    }
}

TEST(TopologySpec, ErrorNamesTheOffendingToken)
{
    try {
        testgen::topologyFromSpec("custom:4:0-1,1-2junk");
        FAIL() << "junk-tailed edge token was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("1-2junk"),
                  std::string::npos)
            << e.what();
    }
}
