/**
 * @file
 * Execution-engine guarantees: block-parallel kernels and reductions
 * are bit-identical for any worker count, shot-parallel trajectories
 * are bit-identical and reproducible per seed, the qubit ceiling and
 * allocation guard fire, and montrealNoise() carries the paper's
 * calibration.
 */

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "core/sweep.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "sim/engine.h"
#include "sim/esp.h"
#include "sim/noise.h"
#include "sim/qaoa_eval.h"
#include "sim/reference.h"
#include "sim/statevector.h"

using namespace tqan;
using namespace tqan::sim;
using tqan::qcir::Circuit;

namespace {

Circuit
qaoaCircuit(int n, int p, std::uint64_t seed, graph::Graph &gOut)
{
    std::mt19937_64 rng(seed);
    gOut = graph::randomRegularGraph(n, 3, rng);
    return ham::qaoaStateCircuit(gOut, ham::qaoaFixedAngles(p));
}

} // namespace

TEST(Engine, KernelsAndReductionsBitIdenticalAcrossJobs)
{
    // n = 16 gives several 2^14-sized blocks, so the 8-worker engine
    // really fans out; amplitudes and reduction values must still be
    // bit-equal to the serial run.
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(16, 2, 1234, g);

    Engine eng(8);
    Statevector serial(16);
    Statevector parallel(16, &eng);
    serial.applyCircuit(c);
    parallel.applyCircuit(c);

    for (std::uint64_t i = 0; i < serial.dim(); ++i)
        ASSERT_EQ(serial.amplitude(i), parallel.amplitude(i)) << i;

    EXPECT_EQ(serial.norm(), parallel.norm());
    EXPECT_EQ(serial.expectationZZ(g.edges()),
              parallel.expectationZZ(g.edges()));
    EXPECT_EQ(serial.fidelityWith(parallel),
              parallel.fidelityWith(serial));
}

TEST(Engine, TrajectoriesBitIdenticalAcrossJobs)
{
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(8, 1, 99, g);
    NoiseModel nm = montrealNoise();

    Engine eng8(8);
    Engine eng2(2);
    double serial = noisyExpectationZZ(c, 8, g.edges(), nm, 24,
                                       /*seed=*/7);
    double par8 =
        noisyExpectationZZ(c, 8, g.edges(), nm, 24, 7, &eng8);
    double par2 =
        noisyExpectationZZ(c, 8, g.edges(), nm, 24, 7, &eng2);
    EXPECT_EQ(serial, par8);
    EXPECT_EQ(serial, par2);
}

TEST(Engine, FailingShotThrowsLikeTheSerialPath)
{
    // A circuit wider than the register fails every shot inside
    // runNoisyTrajectory; fanned out over four jobs, the lowest
    // failing shot's exception surfaces, with the serial path's type
    // and text.
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(8, 1, 99, g);
    NoiseModel nm = montrealNoise();
    auto failure = [&](const Engine *eng) -> std::string {
        try {
            noisyExpectationZZ(c, 6, g.edges(), nm, 16, 7, eng);
        } catch (const std::invalid_argument &e) {
            return e.what();
        } catch (...) {
            return "unexpected exception type";
        }
        return "no exception";
    };
    Engine eng(4);
    const std::string serial = failure(nullptr);
    EXPECT_EQ(serial, "runNoisyTrajectory: register too big");
    EXPECT_EQ(failure(&eng), serial);
}

TEST(Engine, TrajectoriesReproduciblePerSeed)
{
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(6, 1, 17, g);
    NoiseModel nm = montrealNoise();
    nm.err2q = 0.2;  // make error locations load-bearing

    double a = noisyExpectationZZ(c, 6, g.edges(), nm, 16, 42);
    double b = noisyExpectationZZ(c, 6, g.edges(), nm, 16, 42);
    double other = noisyExpectationZZ(c, 6, g.edges(), nm, 16, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, other);
}

TEST(Engine, SeededTrajectoryRatioMatchesAcrossJobs)
{
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(6, 1, 5, g);
    int cmin = g.numEdges() - 2 * ham::maxCut(g);
    Engine eng(4);
    double serial = trajectoryRatio(c, g.edges(), cmin,
                                    montrealNoise(), 12,
                                    std::uint64_t(11));
    double par = trajectoryRatio(c, g.edges(), cmin,
                                 montrealNoise(), 12,
                                 std::uint64_t(11), &eng);
    EXPECT_EQ(serial, par);
}

TEST(Engine, SimBenchCaseDeterministicAcrossJobs)
{
    core::SimBenchCase traj{"t", 8, 1, 8, 0};
    EXPECT_EQ(core::runSimCase(traj, 0, 1),
              core::runSimCase(traj, 0, 4));

    // Noiseless case: the engine and the pre-engine reference
    // simulate the identical state (the case's graph comes from the
    // sweep instance seed of its (QAOA_REG3, n, instance)).
    core::SimBenchCase state{"s", 8, 1, 0, 0};
    EXPECT_EQ(core::runSimCase(state, 0, 1),
              core::runSimCase(state, 0, 4));
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(
        8, 1, core::sweepInstanceSeed(core::Benchmark::QaoaReg3, 8, 0),
        g);
    ref::RefStatevector refPsi(8);
    refPsi.applyCircuit(c);
    EXPECT_NEAR(core::runSimCase(state, 0, 2),
                refPsi.expectationZZ(g.edges()), 1e-10);
}

TEST(Engine, TrajectoryRejectsOversizedCircuit)
{
    // The GateStream path must guard circuit width like
    // applyCircuit does — no out-of-bounds pending-gate slots.
    Statevector psi(2);
    Circuit big(5);
    big.add(qcir::Op::rx(4, 0.3));
    std::mt19937_64 rng(1);
    EXPECT_THROW(
        runNoisyTrajectory(psi, big, montrealNoise(), rng),
        std::invalid_argument);
}

TEST(Engine, DegenerateQubitPairRejectedOnBothEntryPoints)
{
    // Op::cz's factory does not validate q0 != q1; applyOp and the
    // fused applyCircuit path must both reject it identically.
    Statevector psi(4);
    qcir::Op bad = qcir::Op::cz(2, 2);
    EXPECT_THROW(psi.applyOp(bad), std::invalid_argument);
    Circuit c(4);
    c.add(bad);
    EXPECT_THROW(psi.applyCircuit(c), std::invalid_argument);
}

TEST(Engine, CeilingAndAllocationGuards)
{
    EXPECT_THROW(Statevector(0), std::invalid_argument);
    EXPECT_THROW(Statevector(31), std::invalid_argument);
    EXPECT_THROW(Statevector(-3), std::invalid_argument);
    try {
        Statevector(31);
        FAIL() << "no throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("30"),
                  std::string::npos);
    }
}

TEST(Noise, MontrealCalibrationPinsPaperValues)
{
    // Paper Sec. IV: IBMQ Montreal, 2021-10-29.
    NoiseModel nm = montrealNoise();
    EXPECT_DOUBLE_EQ(nm.err2q, 0.01241);
    EXPECT_DOUBLE_EQ(nm.err1q, 0.0004);
    EXPECT_DOUBLE_EQ(nm.errRo, 0.01832);
    EXPECT_DOUBLE_EQ(nm.t1Us, 87.75);
    EXPECT_DOUBLE_EQ(nm.t2Us, 72.65);
    EXPECT_DOUBLE_EQ(nm.gate2qNs, 350.0);
    EXPECT_DOUBLE_EQ(nm.gate1qNs, 35.0);

    // espRatio sanity under the calibrated model: strictly damped
    // but non-zero for a Fig. 10-sized circuit.
    CircuitCost cost{60, 100, 30, 30, 10};
    double r = espRatio(0.7, cost, nm);
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 0.7);
}

TEST(Engine, ParallelNoiselessQaoaSmoke)
{
    // An 18-qubit end-to-end pass on the engine: unitary circuit,
    // norm preserved, cost ratio in the plausible band.
    graph::Graph g(1, {});
    Circuit c = qaoaCircuit(18, 1, 321, g);
    Engine eng(4);
    Statevector psi(18, &eng);
    psi.applyCircuit(c);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-9);
    int cmin = g.numEdges() - 2 * ham::maxCut(g);
    double ratio = psi.expectationZZ(g) / cmin;
    EXPECT_GT(ratio, 0.2);
    EXPECT_LT(ratio, 1.0);
}
