/**
 * @file
 * Tests for the local-equivalence analysis: SBM CNOT counts, class
 * predicates, Weyl coordinates, and the per-gate-set native counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "decomp/native_count.h"
#include "decomp/weyl.h"

using namespace tqan;
using namespace tqan::decomp;
using namespace tqan::linalg;
using tqan::device::GateSet;

namespace {

Mat2
randomSu2(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    return rz(ang(rng)) * ry(ang(rng)) * rz(ang(rng));
}

Mat4
dressLocal(const Mat4 &u, std::mt19937_64 &rng)
{
    return kron(randomSu2(rng), randomSu2(rng)) * u *
           kron(randomSu2(rng), randomSu2(rng));
}

} // namespace

TEST(CnotCount, KnownGates)
{
    EXPECT_EQ(cnotCount(Mat4::identity()), 0);
    EXPECT_EQ(cnotCount(cnot(0, 1)), 1);
    EXPECT_EQ(cnotCount(czGate()), 1);
    EXPECT_EQ(cnotCount(iswapGate()), 2);
    EXPECT_EQ(cnotCount(swapGate()), 3);
    EXPECT_EQ(cnotCount(sycGate()), 3);
}

TEST(CnotCount, InteractionOps)
{
    // exp(i theta ZZ): 2 CNOTs for generic theta.
    EXPECT_EQ(cnotCount(expXxYyZz(0, 0, 0.3)), 2);
    // theta = pi/4 is the CZ/CNOT class.
    EXPECT_EQ(cnotCount(expXxYyZz(0, 0, M_PI / 4)), 1);
    // theta multiple of pi/2 is local.
    EXPECT_EQ(cnotCount(expXxYyZz(0, 0, M_PI / 2)), 0);
    // XY-class (two axes): still 2 CNOTs.
    EXPECT_EQ(cnotCount(expXxYyZz(0.4, 0.7, 0)), 2);
    // Heisenberg (three axes): 3 CNOTs.
    EXPECT_EQ(cnotCount(expXxYyZz(0.4, 0.7, 0.2)), 3);
}

TEST(CnotCount, InvariantUnderLocals)
{
    std::mt19937_64 rng(31);
    for (int trial = 0; trial < 30; ++trial) {
        Mat4 gates[] = {cnot(0, 1), swapGate(),
                        expXxYyZz(0.3, 0.5, 0.0),
                        expXxYyZz(0.3, 0.5, 0.7)};
        for (const Mat4 &g : gates)
            EXPECT_EQ(cnotCount(dressLocal(g, rng)), cnotCount(g));
    }
}

TEST(ClassPredicates, KnownGates)
{
    std::mt19937_64 rng(32);
    EXPECT_TRUE(isLocalClass(kron(randomSu2(rng), randomSu2(rng))));
    EXPECT_FALSE(isLocalClass(cnot(0, 1)));

    EXPECT_TRUE(isCnotClass(cnot(0, 1)));
    EXPECT_TRUE(isCnotClass(czGate()));
    EXPECT_FALSE(isCnotClass(iswapGate()));

    EXPECT_TRUE(isIswapClass(iswapGate()));
    EXPECT_FALSE(isIswapClass(cnot(0, 1)));
    EXPECT_FALSE(isIswapClass(swapGate()));

    EXPECT_TRUE(isSwapClass(swapGate()));
    EXPECT_FALSE(isSwapClass(iswapGate()));

    EXPECT_TRUE(isSycClass(sycGate()));
    EXPECT_FALSE(isSycClass(swapGate()));
    EXPECT_FALSE(isSycClass(iswapGate()));

    EXPECT_TRUE(hasZeroCz(cnot(0, 1)));
    EXPECT_TRUE(hasZeroCz(iswapGate()));
    EXPECT_TRUE(hasZeroCz(expXxYyZz(0.3, 0.8, 0.0)));
    EXPECT_FALSE(hasZeroCz(swapGate()));
    EXPECT_FALSE(hasZeroCz(expXxYyZz(0.3, 0.8, 0.2)));
}

TEST(WeylCoords, KnownGates)
{
    auto w = weylCoordinates(cnot(0, 1));
    EXPECT_NEAR(w.cx, M_PI / 4, 1e-7);
    EXPECT_NEAR(w.cy, 0.0, 1e-7);
    EXPECT_NEAR(w.cz, 0.0, 1e-7);

    w = weylCoordinates(iswapGate());
    EXPECT_NEAR(w.cx, M_PI / 4, 1e-7);
    EXPECT_NEAR(w.cy, M_PI / 4, 1e-7);
    EXPECT_NEAR(w.cz, 0.0, 1e-7);

    w = weylCoordinates(swapGate());
    EXPECT_NEAR(w.cx, M_PI / 4, 1e-7);
    EXPECT_NEAR(w.cy, M_PI / 4, 1e-7);
    EXPECT_NEAR(std::abs(w.cz), M_PI / 4, 1e-7);

    w = weylCoordinates(sycGate());
    EXPECT_NEAR(w.cx, M_PI / 4, 1e-7);
    EXPECT_NEAR(w.cy, M_PI / 4, 1e-7);
    EXPECT_NEAR(std::abs(w.cz), M_PI / 24, 1e-7);
}

TEST(WeylCoords, InteractionCoefficientsRecovered)
{
    std::mt19937_64 rng(33);
    std::uniform_real_distribution<double> coeff(0.02, M_PI / 4 - 0.02);
    for (int trial = 0; trial < 20; ++trial) {
        // Coefficients inside the chamber: recovered up to ordering.
        double a = coeff(rng), b = coeff(rng), c = coeff(rng);
        double v[3] = {a, b, c};
        std::sort(v, v + 3, std::greater<double>());
        auto w = weylCoordinates(dressLocal(expXxYyZz(a, b, c), rng));
        EXPECT_NEAR(w.cx, v[0], 1e-6);
        EXPECT_NEAR(w.cy, v[1], 1e-6);
        EXPECT_NEAR(std::abs(w.cz), v[2], 1e-6);
    }
}

TEST(NativeCount, PerGateSetKnownGates)
{
    // SWAP costs 3 in every basis.
    for (GateSet gs : {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                       GateSet::Syc})
        EXPECT_EQ(nativeCount(swapGate(), gs), 3);

    // exp(i theta ZZ) costs 2 in every basis.
    Mat4 zz = expXxYyZz(0, 0, 0.4);
    for (GateSet gs : {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                       GateSet::Syc})
        EXPECT_EQ(nativeCount(zz, gs), 2);

    // Heisenberg-style op costs 3 everywhere.
    Mat4 heis = expXxYyZz(0.3, 0.5, 0.7);
    for (GateSet gs : {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                       GateSet::Syc})
        EXPECT_EQ(nativeCount(heis, gs), 3);

    // Native gates count 1 in their own basis.
    EXPECT_EQ(nativeCount(cnot(0, 1), GateSet::Cnot), 1);
    EXPECT_EQ(nativeCount(iswapGate(), GateSet::ISwap), 1);
    EXPECT_EQ(nativeCount(sycGate(), GateSet::Syc), 1);
    // ... and the XY class costs 2 iSWAPs.
    EXPECT_EQ(nativeCount(expXxYyZz(0.3, 0.6, 0), GateSet::ISwap), 2);
}

TEST(NativeCount, DressedSwapCostsThree)
{
    // The core claim behind unitary unifying: a dressed SWAP is a
    // generic three-axis gate, same cost as the circuit gate alone.
    Mat4 dressed = swapGate() * expXxYyZz(0.0, 0.0, 0.4);
    for (GateSet gs : {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                       GateSet::Syc})
        EXPECT_EQ(nativeCount(dressed, gs), 3);
}

TEST(NativeCount, OpInterface)
{
    using tqan::qcir::Op;
    EXPECT_EQ(nativeCountOp(Op::interact(0, 1, 0, 0, 0.4),
                            GateSet::Cnot),
              2);
    EXPECT_EQ(nativeCountOp(Op::swap(0, 1), GateSet::Cnot), 3);
    EXPECT_EQ(nativeCountOp(Op::dressedSwap(0, 1, 0, 0, 0.4),
                            GateSet::Cnot),
              3);
    EXPECT_EQ(nativeCountOp(Op::cnot(0, 1), GateSet::Cnot), 1);
    EXPECT_EQ(nativeCountOp(Op::cnot(0, 1), GateSet::Cz), 1);
    EXPECT_THROW(nativeCountOp(Op::rx(0, 0.1), GateSet::Cnot),
                 std::invalid_argument);
}

TEST(NativeCount, PlainSwapShortcutMatchesItsUnitary)
{
    // nativeCountOp answers a plain SWAP without building its 4x4;
    // the answer must be what the unitary's class gives.
    using tqan::qcir::Op;
    const Op swap = Op::swap(0, 1);
    for (GateSet gs : {GateSet::Cnot, GateSet::Cz, GateSet::ISwap,
                       GateSet::Syc}) {
        SCOPED_TRACE(device::gateSetName(gs));
        EXPECT_EQ(nativeCount(swap.unitary4(), gs),
                  nativeCountOp(swap, gs));
    }
}

TEST(NativeCount, CircuitTotal)
{
    using tqan::qcir::Circuit;
    using tqan::qcir::Op;
    Circuit c(3);
    c.add(Op::interact(0, 1, 0, 0, 0.4));  // 2
    c.add(Op::swap(1, 2));                 // 3
    c.add(Op::rx(0, 0.2));                 // 0
    EXPECT_EQ(nativeTwoQubitCount(c, GateSet::Cnot), 5);
}
