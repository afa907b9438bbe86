/**
 * @file
 * Tests of the executed-order reference extraction (un-mapping),
 * the order-free operator-multiset check and the conservative
 * commutation test — plus the layout property test: for every
 * backend, CompileResult::finalLayout() must equal the map produced
 * by replaying the device circuit's own SWAP trace.
 */

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/router_registry.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"
#include "qap/placement.h"
#include "testgen/scenario.h"
#include "verify/reference.h"

using namespace tqan;
using qcir::Circuit;
using qcir::Op;
using verify::unmapDeviceCircuit;

TEST(UnmapReference, TracksSwapsAndDressedSwaps)
{
    // Device: 4 qubits, logical 0 -> 2, 1 -> 0.
    Circuit dev(4);
    dev.add(Op::interact(2, 0, 0.1, 0.2, 0.3));
    dev.add(Op::swap(2, 3));             // logical 0 now at 3
    dev.add(Op::rx(3, 0.5));             // on logical 0
    dev.add(Op::dressedSwap(0, 3, 0.4, 0.0, 0.6));  // swap 1 <-> 0
    qap::Placement init = {2, 0};

    verify::UnmappedReference ref = unmapDeviceCircuit(dev, init, 2);
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_EQ(ref.logical.size(), 3);
    EXPECT_EQ(ref.logical.op(0).kind, qcir::OpKind::Interact);
    EXPECT_EQ(ref.logical.op(1).kind, qcir::OpKind::Rx);
    EXPECT_EQ(ref.logical.op(1).q0, 0);
    EXPECT_EQ(ref.logical.op(2).kind, qcir::OpKind::Interact);
    // After the dressed swap: logical 0 at device 0, logical 1 at 3.
    EXPECT_EQ(ref.finalMap, (qap::Placement{0, 3}));
}

TEST(UnmapReference, FailsOnHardwareOpsAndUnmappedQubits)
{
    Circuit hw(2);
    hw.add(Op::cnot(0, 1));
    verify::UnmappedReference r1 =
        unmapDeviceCircuit(hw, {0, 1}, 2);
    EXPECT_FALSE(r1.ok);

    Circuit stray(3);
    stray.add(Op::rx(2, 0.3));  // device qubit 2 holds no logical
    verify::UnmappedReference r2 =
        unmapDeviceCircuit(stray, {0, 1}, 2);
    EXPECT_FALSE(r2.ok);
}

TEST(OperatorMultiset, AcceptsReorderingsRejectsChanges)
{
    Circuit a(3);
    a.add(Op::interact(0, 1, 0.1, 0.2, 0.3));
    a.add(Op::interact(1, 2, 0.4, 0.5, 0.6));
    a.add(Op::rx(0, 0.7));

    Circuit b(3);  // reordered + swapped operands: still equal
    b.add(Op::rx(0, 0.7));
    b.add(Op::interact(2, 1, 0.4, 0.5, 0.6));
    b.add(Op::interact(0, 1, 0.1, 0.2, 0.3));
    EXPECT_TRUE(verify::sameOperatorMultiset(a, b));

    Circuit c = b;  // corrupt one coefficient
    c.ops()[1].ayy += 1e-3;
    std::string why;
    EXPECT_FALSE(verify::sameOperatorMultiset(a, c, 1e-9, &why));
    EXPECT_FALSE(why.empty());

    Circuit d(3);  // dropped term
    d.add(Op::interact(0, 1, 0.1, 0.2, 0.3));
    d.add(Op::rx(0, 0.7));
    EXPECT_FALSE(verify::sameOperatorMultiset(a, d));

    // A dressed SWAP counts as its Interact payload.
    Circuit e(3);
    e.add(Op::dressedSwap(0, 1, 0.1, 0.2, 0.3));
    e.add(Op::interact(1, 2, 0.4, 0.5, 0.6));
    e.add(Op::rx(0, 0.7));
    EXPECT_TRUE(verify::sameOperatorMultiset(a, e));
}

TEST(AllOpsCommute, ConservativeClassification)
{
    Circuit zz(3);  // pure-ZZ + Rz: all diagonal
    zz.add(Op::interact(0, 1, 0.0, 0.0, 0.3));
    zz.add(Op::interact(1, 2, 0.0, 0.0, 0.4));
    zz.add(Op::rz(1, 0.5));
    EXPECT_TRUE(verify::allOpsCommute(zz));

    Circuit disjoint(4);  // non-diagonal but disjoint supports
    disjoint.add(Op::interact(0, 1, 0.3, 0.2, 0.1));
    disjoint.add(Op::interact(2, 3, 0.5, 0.1, 0.2));
    EXPECT_TRUE(verify::allOpsCommute(disjoint));

    Circuit mixed = zz;  // an Rx on a shared qubit breaks it
    mixed.add(Op::rx(1, 0.2));
    EXPECT_FALSE(verify::allOpsCommute(mixed));
}

/**
 * Satellite property test: for every backend and a spread of random
 * scenarios, the advertised finalLayout() must equal the map
 * obtained by replaying the compiled circuit's own SWAP trace from
 * initialLayout() (exactly what un-mapping computes).
 */
TEST(LayoutProperty, FinalLayoutMatchesSwapTraceForAllBackends)
{
    for (std::uint64_t seed : {101, 202, 303, 404, 505}) {
        testgen::Scenario s = testgen::randomScenario(seed);
        for (const std::string &b : core::backendNames()) {
            if (core::backendByName(b).info().diagonalOnly &&
                !s.hamiltonian->isDiagonal())
                continue;
            core::CompileJob job;
            job.step = s.step.get();
            job.hamiltonian = s.hamiltonian.get();
            job.time = s.time;
            job.options.seed = seed;
            job.options.mapperTrials = 2;
            core::CompileResult res =
                core::backendByName(b).compile(job, s.topo);

            verify::UnmappedReference ref = unmapDeviceCircuit(
                res.sched.deviceCircuit, res.initialLayout(),
                s.step->numQubits());
            ASSERT_TRUE(ref.ok)
                << b << " on " << s.name << ": " << ref.error;
            EXPECT_EQ(ref.finalMap, res.finalLayout())
                << b << " on " << s.name;
        }
    }
}

/** For the 2QAN pipeline, the router rerun on the compile's initial
 * layout (same unified step, same seed) reproduces its SWAP trace:
 * applying the SwapSteps to initialLayout() must land on the router's
 * finalMap and on finalLayout(), with the compile's SWAP count. */
TEST(LayoutProperty, RoutingSwapTraceMatchesMaps)
{
    testgen::Scenario s = testgen::randomScenario(42);
    core::CompileJob job;
    job.step = s.step.get();
    job.options.seed = 7;
    job.options.mapperTrials = 2;
    core::CompileResult res =
        core::backendByName("2qan").compile(job, s.topo);

    qcir::Circuit unified = qcir::unifySamePairInteractions(*s.step);
    std::mt19937_64 rng(job.options.seed);
    core::RouteRequest req;
    req.circuit = &unified;
    req.initial = &res.initialLayout();
    req.topo = &s.topo;
    req.rng = &rng;
    req.opt = job.options.router;
    core::RoutingResult r =
        core::routerByName(req.opt.name).route(req);

    qap::Placement cur = r.initial;
    std::vector<int> inv = qap::invertPlacement(cur, s.topo.numQubits());
    for (const core::SwapStep &step : r.swaps)
        qap::applySwap(cur, inv, step.p, step.q);
    EXPECT_EQ(cur, r.finalMap);
    EXPECT_EQ(cur, res.finalLayout());
    EXPECT_EQ(r.swapCount(), res.sched.swapCount);
}
