/**
 * @file
 * Reproducibility and consistency guarantees the benchmarks rely on:
 * seeded determinism of every randomized component, ESP/trajectory
 * ordering agreement, noise-aware distance monotonicity, and device
 * family generators at other sizes.
 */

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/metrics.h"
#include "device/devices.h"
#include "device/noise_map.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "sim/qaoa_eval.h"

using namespace tqan;

TEST(Reproducibility, CompilerIsDeterministicPerSeed)
{
    std::mt19937_64 rng(191);
    auto h = ham::nnnHeisenberg(12, rng);
    auto step = ham::trotterStep(h, 1.0);
    core::CompilerOptions opt;
    opt.seed = 192;
    core::TqanCompiler comp(device::montreal27(), opt);

    auto a = comp.compile(step);
    auto b = comp.compile(step);
    EXPECT_EQ(a.initialLayout(), b.initialLayout());
    EXPECT_EQ(a.sched.swapCount, b.sched.swapCount);
    EXPECT_EQ(a.sched.dressedCount, b.sched.dressedCount);
    ASSERT_EQ(a.sched.deviceCircuit.size(),
              b.sched.deviceCircuit.size());
    for (int i = 0; i < a.sched.deviceCircuit.size(); ++i) {
        EXPECT_EQ(a.sched.deviceCircuit.op(i).q0,
                  b.sched.deviceCircuit.op(i).q0);
        EXPECT_EQ(a.sched.deviceCircuit.op(i).q1,
                  b.sched.deviceCircuit.op(i).q1);
    }
}

TEST(Reproducibility, DifferentSeedsExploreDifferentTies)
{
    // Not a hard guarantee per instance, but across a handful of
    // seeds at least one compilation must differ (the router breaks
    // ties randomly, as in the paper).
    std::mt19937_64 rng(193);
    auto g = graph::randomRegularGraph(12, 3, rng);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    auto step = ham::trotterStep(h, 1.0);

    std::set<std::pair<int, int>> outcomes;
    for (std::uint64_t s = 0; s < 6; ++s) {
        core::CompilerOptions opt;
        opt.seed = 200 + s;
        core::TqanCompiler comp(device::montreal27(), opt);
        auto r = comp.compile(step);
        outcomes.insert({r.sched.swapCount,
                         r.sched.deviceCircuit.twoQubitCount()});
    }
    EXPECT_GE(outcomes.size(), 2u);
}

TEST(Reproducibility, RandomRegularGraphIsSeedStable)
{
    std::mt19937_64 a(42), b(42);
    auto ga = graph::randomRegularGraph(14, 3, a);
    auto gb = graph::randomRegularGraph(14, 3, b);
    EXPECT_EQ(ga.edges(), gb.edges());
    // Dense generator too.
    std::mt19937_64 c(43), d(43);
    EXPECT_EQ(graph::randomRegularGraph(16, 8, c).edges(),
              graph::randomRegularGraph(16, 8, d).edges());
}

TEST(Consistency, EspAndTrajectoriesAgreeOnOrdering)
{
    // A circuit with 3x the gates must score lower under both the
    // ESP model and the trajectory simulation.
    std::mt19937_64 rng(194);
    auto g = graph::randomRegularGraph(6, 3, rng);
    int cmin = g.numEdges() - 2 * ham::maxCut(g);

    auto c1 = ham::qaoaStateCircuit(g, ham::qaoaFixedAngles(1));
    auto c3 = ham::qaoaStateCircuit(g, ham::qaoaFixedAngles(3));

    sim::NoiseModel nm = sim::montrealNoise();
    nm.err2q = 0.05;  // exaggerate for statistical separation

    double esp1 = sim::esp(sim::tallyCircuit(c1, 6), nm);
    double esp3 = sim::esp(sim::tallyCircuit(c3, 6), nm);
    EXPECT_GT(esp1, esp3);

    std::mt19937_64 t1(1), t3(1);
    double r1 = sim::trajectoryRatio(c1, g.edges(), cmin, nm, 150,
                                     t1);
    double r3 = sim::trajectoryRatio(c3, g.edges(), cmin, nm, 150,
                                     t3);
    // Noiseless p=3 beats p=1, but under heavy noise the deeper
    // circuit loses more: the *degradation* ordering must agree.
    double clean1 = sim::noiselessRatio(g, ham::qaoaFixedAngles(1));
    double clean3 = sim::noiselessRatio(g, ham::qaoaFixedAngles(3));
    EXPECT_GT(r1 / clean1, r3 / clean3);
}

TEST(Consistency, NoiseAwareDistanceMonotonicInLambda)
{
    device::Topology topo = device::montreal27();
    std::mt19937_64 rng(195);
    auto nm = device::NoiseMap::synthetic(topo, rng);
    auto d0 = nm.noiseAwareDistances(0.0);
    auto d1 = nm.noiseAwareDistances(1.0);
    auto d2 = nm.noiseAwareDistances(2.0);
    for (int p = 0; p < 27; ++p) {
        for (int q = 0; q < 27; ++q) {
            EXPECT_LE(d0[p][q], d1[p][q] + 1e-12);
            EXPECT_LE(d1[p][q], d2[p][q] + 1e-12);
        }
    }
}

TEST(DeviceFamilies, HeavyHexScalesAndStaysDegreeThree)
{
    for (int d : {3, 5, 7}) {
        device::Topology t = device::heavyHex(d);
        EXPECT_GT(t.numQubits(), 5 * d);
        for (int q = 0; q < t.numQubits(); ++q)
            EXPECT_LE(static_cast<int>(t.neighbors(q).size()), 3);
    }
    EXPECT_EQ(device::heavyHex(5).numQubits(), 65);
}

TEST(DeviceFamilies, CubeFamilies)
{
    EXPECT_EQ(device::cube(2, 2, 2).numQubits(), 8);
    EXPECT_EQ(static_cast<int>(device::cube(2, 2, 2).edges().size()),
              12);
    EXPECT_EQ(device::cube(4, 3, 2).numQubits(), 24);
}

TEST(Statevector, SixteenQubitSmoke)
{
    // Larger-register sanity: norm preservation and a cost value on
    // a 16-qubit QAOA state.
    std::mt19937_64 rng(196);
    auto g = graph::randomRegularGraph(16, 3, rng);
    auto c = ham::qaoaStateCircuit(g, ham::qaoaFixedAngles(1));
    sim::Statevector psi(16);
    psi.applyCircuit(c);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-9);
    int cmin = g.numEdges() - 2 * ham::maxCut(g);
    double ratio = psi.expectationZZ(g) / cmin;
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 1.0);
}

TEST(FailureInjection, SimulatorGuards)
{
    EXPECT_THROW(sim::Statevector(0), std::invalid_argument);
    // Ceiling is 30 qubits (2^30 amplitudes = 16 GiB); beyond it
    // the guard fires before any allocation is attempted.
    EXPECT_THROW(sim::Statevector(31), std::invalid_argument);
    sim::Statevector psi(2);
    EXPECT_THROW(psi.applyPauli(0, 'Q'), std::invalid_argument);
    qcir::Circuit big(5);
    EXPECT_THROW(psi.applyCircuit(big), std::invalid_argument);
}
