/**
 * @file
 * Distribution-sanity tests of the workload generator: determinism,
 * kind coverage (including every adversarial shape), topology
 * invariants (connectivity, degree bound, size window), coefficient
 * ranges, and spec round-tripping.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "testgen/scenario.h"

using namespace tqan;
using testgen::Scenario;
using testgen::ScenarioKind;

namespace {
constexpr int kDraws = 300;
}

TEST(ScenarioGen, DeterministicInSeed)
{
    for (std::uint64_t seed : {1, 17, 4242}) {
        Scenario a = testgen::randomScenario(seed);
        Scenario b = testgen::randomScenario(seed);
        EXPECT_EQ(testgen::toSpec(a), testgen::toSpec(b));
        EXPECT_EQ(a.name, b.name);
    }
}

TEST(ScenarioGen, EveryKindAppears)
{
    std::map<ScenarioKind, int> counts;
    for (int i = 0; i < kDraws; ++i)
        ++counts[testgen::randomScenario(i).kind];
    for (ScenarioKind k :
         {ScenarioKind::HeisenbergChain, ScenarioKind::IsingChain,
          ScenarioKind::XYChain, ScenarioKind::RandomGraphHam,
          ScenarioKind::Qaoa, ScenarioKind::DisconnectedHam,
          ScenarioKind::SingleQubitOnly, ScenarioKind::FullDevice})
        EXPECT_GT(counts[k], 0)
            << "kind " << testgen::scenarioKindName(k)
            << " never drawn in " << kDraws << " scenarios";
}

TEST(ScenarioGen, TopologyInvariants)
{
    testgen::ScenarioOptions opt;
    for (int i = 0; i < kDraws; ++i) {
        Scenario s = testgen::randomScenario(i, opt);
        const int n = s.hamiltonian->numQubits();
        const int dn = s.topo.numQubits();

        EXPECT_GE(n, opt.minQubits) << s.name;
        EXPECT_LE(n, opt.maxQubits) << s.name;
        EXPECT_GE(dn, n) << s.name;
        EXPECT_LE(dn, std::max(opt.maxDeviceQubits, n)) << s.name;
        EXPECT_TRUE(s.topo.coupling().isConnected()) << s.name;
        for (int q = 0; q < dn; ++q)
            EXPECT_LE(s.topo.coupling().degree(q),
                      opt.topology.maxDegree)
                << s.name;
        if (s.kind == ScenarioKind::FullDevice) {
            EXPECT_EQ(dn, n) << s.name;
        }
    }
}

TEST(ScenarioGen, CoefficientRangesAndStepShape)
{
    constexpr double kPi = 3.14159265358979323846;
    for (int i = 0; i < kDraws; ++i) {
        Scenario s = testgen::randomScenario(i);
        for (const auto &p : s.hamiltonian->pairs()) {
            for (double c : {p.xx, p.yy, p.zz}) {
                EXPECT_GE(c, 0.0) << s.name;
                EXPECT_LT(c, kPi) << s.name;
            }
            EXPECT_GT(std::abs(p.xx) + std::abs(p.yy) +
                          std::abs(p.zz),
                      0.0)
                << s.name << ": empty pair term";
        }
        EXPECT_GT(s.time, 0.0);
        EXPECT_LE(s.time, 1.0);
        // The step realizes exactly the Hamiltonian's terms.
        EXPECT_EQ(s.step->twoQubitCount(),
                  static_cast<int>(s.hamiltonian->pairs().size()))
            << s.name;
        if (s.kind == ScenarioKind::SingleQubitOnly) {
            EXPECT_EQ(s.step->twoQubitCount(), 0) << s.name;
        }
    }
}

TEST(ScenarioGen, AdversarialFractionRoughlyRespected)
{
    int adversarial = 0;
    for (int i = 0; i < kDraws; ++i) {
        ScenarioKind k = testgen::randomScenario(i).kind;
        if (k == ScenarioKind::DisconnectedHam ||
            k == ScenarioKind::SingleQubitOnly ||
            k == ScenarioKind::FullDevice)
            ++adversarial;
    }
    // Expected 25% +- a generous band (binomial, n = 300).
    EXPECT_GT(adversarial, kDraws / 8);
    EXPECT_LT(adversarial, kDraws / 2);
}

TEST(ScenarioGen, DisconnectedScenariosAreDisconnected)
{
    int seen = 0;
    for (int i = 0; i < kDraws && seen < 5; ++i) {
        Scenario s = testgen::randomScenario(i);
        if (s.kind != ScenarioKind::DisconnectedHam)
            continue;
        ++seen;
        graph::Graph ig = s.hamiltonian->interactionGraph();
        EXPECT_FALSE(ig.isConnected()) << s.name;
    }
    EXPECT_GT(seen, 0);
}

TEST(ScenarioGen, SpecRoundTrip)
{
    for (std::uint64_t seed : {3, 99, 1001}) {
        Scenario s = testgen::randomScenario(seed);
        Scenario r = testgen::scenarioFromSpec(testgen::toSpec(s));
        EXPECT_EQ(r.topo.edges(), s.topo.edges());
        EXPECT_EQ(r.hamiltonian->pairs().size(),
                  s.hamiltonian->pairs().size());
        EXPECT_EQ(r.hamiltonian->fields().size(),
                  s.hamiltonian->fields().size());
        for (size_t i = 0; i < s.hamiltonian->pairs().size(); ++i) {
            const auto &a = s.hamiltonian->pairs()[i];
            const auto &b = r.hamiltonian->pairs()[i];
            EXPECT_EQ(a.u, b.u);
            EXPECT_EQ(a.v, b.v);
            EXPECT_DOUBLE_EQ(a.xx, b.xx);
            EXPECT_DOUBLE_EQ(a.yy, b.yy);
            EXPECT_DOUBLE_EQ(a.zz, b.zz);
        }
    }
}

TEST(ScenarioGen, SpecRejectsJunkValues)
{
    const std::string tail = "device = line:3\nhamiltonian:\nqubits 2\n"
                             "zz 0 1 0.5\n";
    Scenario ok = testgen::scenarioFromSpec(
        "seed = 7\ntime = 0.5\nnoise = 11 0.25\n" + tail);
    EXPECT_EQ(ok.seed, 7u);
    EXPECT_EQ(ok.time, 0.5);
    EXPECT_TRUE(ok.withNoise);
    EXPECT_EQ(ok.noiseSeed, 11u);
    EXPECT_EQ(ok.noiseLambda, 0.25);

    // Prefix parses used to take each of these (and "-1" wrapped to
    // 2^64 - 1); now each fails naming its line.
    for (const char *bad :
         {"seed = 7junk", "seed = -1", "seed =", "time = 0.5x",
          "time = nan", "noise = 11", "noise = 11x 0.25",
          "noise = 11 0.25x", "noise = 11 0.25 3"}) {
        try {
            testgen::scenarioFromSpec("# header\n" + std::string(bad) +
                                      "\n" + tail);
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RandomTopology, SpecRoundTripAndNamedFallback)
{
    std::mt19937_64 rng(5);
    testgen::TopologyOptions opt;
    device::Topology t = testgen::randomConnectedTopology(rng, opt);
    device::Topology r =
        testgen::topologyFromSpec(testgen::topologySpec(t));
    EXPECT_EQ(r.numQubits(), t.numQubits());
    EXPECT_EQ(r.edges(), t.edges());

    // Non-custom specs fall through to deviceByName.
    EXPECT_EQ(testgen::topologyFromSpec("line:5").numQubits(), 5);
    EXPECT_THROW(testgen::topologyFromSpec("custom:bad"),
                 std::invalid_argument);
    EXPECT_THROW(testgen::topologyFromSpec("custom:3:0-9"),
                 std::invalid_argument);
}
