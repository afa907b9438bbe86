/**
 * @file
 * End-to-end tests of the TqanCompiler pipeline, its per-stage
 * times, and metrics.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/compiler.h"
#include "core/metrics.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "qap/tabu.h"

using namespace tqan;
using namespace tqan::core;

TEST(Compiler, RejectsOversizedCircuit)
{
    std::mt19937_64 rng(81);
    auto h = ham::nnnIsing(10, rng);
    TqanCompiler comp(device::line(5));
    EXPECT_THROW(comp.compile(ham::trotterStep(h, 1.0)),
                 std::invalid_argument);
}

TEST(Compiler, EveryMapperWorks)
{
    std::mt19937_64 rng(82);
    auto h = ham::nnnHeisenberg(8, rng);
    auto step = ham::trotterStep(h, 1.0);
    const char *const mappers[] = {"tabu", "anneal", "greedy", "line",
                                   "identity"};
    for (int i = 0; i < 5; ++i) {
        CompilerOptions opt;
        opt.mapper = mappers[i];
        opt.seed = 100 + i;
        TqanCompiler comp(device::grid(3, 3), opt);
        auto res = comp.compile(step);
        EXPECT_TRUE(scheduleIsValid(
            qcir::unifySamePairInteractions(step),
            comp.topology(), res.sched))
            << "mapper " << mappers[i];
    }
}

TEST(Compiler, HeisenbergHasNearZeroSycOverhead)
{
    // Paper Sec. V-A: on Sycamore, nearly all 2QAN SWAPs merge with
    // Heisenberg circuit gates, so the SYC count stays close to the
    // NoMap baseline (3 SYC per pair either way).
    std::mt19937_64 rng(83);
    auto h = ham::nnnHeisenberg(16, rng);
    CompilerOptions opt;
    opt.seed = 84;
    TqanCompiler comp(device::sycamore54(), opt);
    auto res = comp.compile(ham::trotterStep(h, 1.0));
    auto m = computeMetrics(res.sched, ham::trotterStep(h, 1.0),
                            device::GateSet::Syc);
    // NoMap: 29 pairs x 3 SYC.
    EXPECT_EQ(m.native2qNoMap, 29 * 3);
    // Overhead only from undressed SWAPs: small fraction.
    EXPECT_LE(m.gateOverhead(), 18);
    EXPECT_GE(m.dressed, 1);
}

TEST(Compiler, UnifyTogglesChangeDressedCounts)
{
    std::mt19937_64 rng(85);
    auto h = ham::nnnIsing(12, rng);
    auto step = ham::trotterStep(h, 1.0);

    CompilerOptions on;
    on.seed = 86;
    CompilerOptions off = on;
    off.router.unifySwaps = false;

    TqanCompiler con(device::montreal27(), on);
    TqanCompiler coff(device::montreal27(), off);
    auto ron = con.compile(step);
    auto roff = coff.compile(step);
    EXPECT_GT(ron.sched.dressedCount, 0);
    EXPECT_EQ(roff.sched.dressedCount, 0);

    auto mon = computeMetrics(ron.sched, step, device::GateSet::Cnot);
    auto moff =
        computeMetrics(roff.sched, step, device::GateSet::Cnot);
    // Unifying can only help the gate count.
    EXPECT_LE(mon.native2q, moff.native2q + 3);
}

TEST(Compiler, MultiLayerQaoaReversalStaysValid)
{
    // Compile one QAOA layer; the even-layer trick reverses the 2q
    // order, which must remain a valid schedule of the same ops.
    std::mt19937_64 rng(87);
    auto g = graph::randomRegularGraph(10, 3, rng);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    auto step = ham::trotterStep(h, 1.0);

    CompilerOptions opt;
    opt.seed = 88;
    TqanCompiler comp(device::montreal27(), opt);
    auto res = comp.compile(step);

    qcir::Circuit fwd = res.sched.deviceCircuit;
    qcir::Circuit rev = fwd.reversedTwoQubitOrder();
    EXPECT_EQ(rev.twoQubitCount(), fwd.twoQubitCount());

    // Replay the reversed circuit: starting from the *final* map it
    // must execute every op on coupled qubits and end at the initial
    // map (DESIGN.md: the reversal argument).
    auto inv = qap::invertPlacement(res.sched.finalMap,
                                    comp.topology().numQubits());
    for (const auto &o : rev.ops()) {
        if (!o.isTwoQubit())
            continue;
        EXPECT_TRUE(comp.topology().connected(o.q0, o.q1));
        if (o.isSwapLike())
            std::swap(inv[o.q0], inv[o.q1]);
    }
    auto inv0 = qap::invertPlacement(res.sched.initialMap,
                                     comp.topology().numQubits());
    EXPECT_EQ(inv, inv0);
}

TEST(Compiler, CompileReportsPerPassTimes)
{
    std::mt19937_64 rng(31);
    auto h = ham::nnnHeisenberg(8, rng);
    CompilerOptions opt;
    opt.seed = 32;
    TqanCompiler comp(device::grid(3, 3), opt);
    auto res = comp.compile(ham::trotterStep(h, 1.0));

    ASSERT_EQ(res.passTimes.size(), 4u);
    EXPECT_EQ(res.passTimes[0].pass, "unify");
    EXPECT_EQ(res.passTimes[3].pass, "scheduling");
}

TEST(Compiler, UnifyOffSkipsTheUnifyStage)
{
    std::mt19937_64 rng(34);
    auto h = ham::nnnHeisenberg(6, rng);
    CompilerOptions opt;
    opt.unifyCircuit = false;
    TqanCompiler comp(device::line(6), opt);
    auto res = comp.compile(ham::trotterStep(h, 1.0));

    std::vector<std::string> names;
    for (const auto &t : res.passTimes) {
        names.push_back(t.pass);
        EXPECT_GE(t.seconds, 0.0);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"mapping", "routing",
                                               "scheduling"}));
}

TEST(Compiler, PassSecondsSumsMatchingEntries)
{
    std::vector<PassTiming> times{{"mapping", 1.0},
                                  {"routing", 2.0},
                                  {"mapping", 0.5}};
    EXPECT_DOUBLE_EQ(passSeconds(times, "mapping"), 1.5);
    EXPECT_DOUBLE_EQ(passSeconds(times, "routing"), 2.0);
    EXPECT_DOUBLE_EQ(passSeconds(times, "scheduling"), 0.0);
}

TEST(Compiler, NoiseAwareCompilePlacesAgainstNoiseAwareDistances)
{
    // With calibration data attached, the tabu stage solves the QAP
    // of the unified step against the noise-aware matrix at
    // noiseLambda, with the compile's seed and trial count.
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(11);
    auto nm = std::make_shared<device::NoiseMap>(
        device::NoiseMap::synthetic(topo, nrng));

    std::mt19937_64 rng(35);
    auto step = ham::trotterStep(ham::nnnHeisenberg(10, rng), 1.0);
    CompilerOptions opt;
    opt.seed = 36;
    opt.mapperTrials = 3;
    opt.noiseMap = nm;
    opt.noiseLambda = 1.5;
    auto res = TqanCompiler(topo, opt).compile(step);

    qap::Placement expected = qap::bestOfTabu(
        qap::flowMatrixOf(qcir::unifySamePairInteractions(step)),
        nm->noiseAwareDistances(1.5), opt.seed, opt.mapperTrials);
    EXPECT_EQ(res.initialLayout(), expected);
    // The hop-distance placement differs, so the pin has teeth.
    opt.noiseMap = nullptr;
    EXPECT_NE(TqanCompiler(topo, opt).compile(step).initialLayout(),
              expected);
}

TEST(Compiler, UnknownMapperNameThrowsListingRegistered)
{
    std::mt19937_64 rng(33);
    auto h = ham::nnnHeisenberg(4, rng);
    CompilerOptions opt;
    opt.mapper = "bogus";
    TqanCompiler comp(device::line(4), opt);
    try {
        comp.compile(ham::trotterStep(h, 1.0));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown mapper 'bogus'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("tabu"), std::string::npos) << msg;
    }
}

TEST(Metrics, OverheadAccessors)
{
    CompilationMetrics m;
    m.native2q = 30;
    m.native2qNoMap = 20;
    m.depth2q = 12;
    m.depth2qNoMap = 8;
    EXPECT_EQ(m.gateOverhead(), 10);
    EXPECT_EQ(m.depth2qOverhead(), 4);
}

/** The headline comparison, in miniature: 2QAN never inserts more
 * SWAPs than a dependency-respecting router on these workloads. */
class CompilerVsOrderProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CompilerVsOrderProperty, PermutationAwarenessHelps)
{
    auto [model, seed] = GetParam();
    std::mt19937_64 rng(seed * 131 + 3);
    int n = 12;
    ham::TwoLocalHamiltonian h =
        model == 0 ? ham::nnnIsing(n, rng)
                   : ham::nnnHeisenberg(n, rng);
    auto step = ham::trotterStep(h, 1.0);

    CompilerOptions opt;
    opt.seed = seed;
    TqanCompiler comp(device::montreal27(), opt);
    auto res = comp.compile(step);
    // NNN chains embed well under QAP: single-digit SWAP counts.
    EXPECT_LE(res.sched.swapCount, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompilerVsOrderProperty,
                         ::testing::Combine(::testing::Range(0, 2),
                                            ::testing::Range(0, 6)));
