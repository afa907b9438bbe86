/**
 * @file
 * Remaining-surface coverage: stringification, accessor edges, op
 * payload errors, and scheduler equivalence on the NoMap path.
 */

#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "device/devices.h"
#include "graph/coloring.h"
#include "ham/models.h"
#include "qap/placement.h"
#include "ham/trotter.h"
#include "qcir/circuit.h"

using namespace tqan;
using qcir::Circuit;
using qcir::Op;
using qcir::OpKind;

TEST(OpStr, NamesAndParameters)
{
    EXPECT_EQ(qcir::opKindName(OpKind::DressedSwap), "DressedSwap");
    EXPECT_EQ(qcir::opKindName(OpKind::Syc), "Syc");

    std::string s = Op::interact(0, 2, 0.1, 0.2, 0.3).str();
    EXPECT_NE(s.find("Interact"), std::string::npos);
    EXPECT_NE(s.find("q0"), std::string::npos);
    EXPECT_NE(s.find("q2"), std::string::npos);
    EXPECT_NE(s.find("zz=0.3"), std::string::npos);

    std::string r = Op::rx(1, 0.5).str();
    EXPECT_NE(r.find("Rx"), std::string::npos);
}

TEST(CircuitStr, ListsOps)
{
    Circuit c(2);
    c.add(Op::swap(0, 1));
    std::string s = c.str();
    EXPECT_NE(s.find("2 qubits"), std::string::npos);
    EXPECT_NE(s.find("Swap"), std::string::npos);
}

TEST(OpPayload, MissingMatrixThrows)
{
    Op o;
    o.kind = OpKind::U2q;
    o.q0 = 0;
    o.q1 = 1;
    EXPECT_THROW(o.unitary4(), std::logic_error);
    Op p;
    p.kind = OpKind::U1q;
    p.q0 = 0;
    EXPECT_THROW(p.unitary2(), std::logic_error);
    // Cross-arity calls throw too.
    EXPECT_THROW(Op::rx(0, 0.1).unitary4(), std::logic_error);
    EXPECT_THROW(Op::swap(0, 1).unitary2(), std::logic_error);
}

TEST(CircuitAppend, SizeMismatchThrows)
{
    Circuit a(3), b(4);
    EXPECT_THROW(a.append(b), std::invalid_argument);
}

TEST(NoMapScheduler, MatchesColoringDepthBound)
{
    // The NoMap schedule's 2q depth equals the greedy coloring's
    // color count of the conflict graph.
    std::mt19937_64 rng(201);
    auto h = ham::nnnHeisenberg(12, rng);
    auto step = ham::trotterStep(h, 1.0);
    auto s = core::scheduleNoMap(step);

    std::vector<int> twoq;
    for (int i = 0; i < step.size(); ++i)
        if (step.op(i).isTwoQubit())
            twoq.push_back(i);
    graph::Graph conflict(static_cast<int>(twoq.size()));
    for (size_t a = 0; a < twoq.size(); ++a)
        for (size_t b = a + 1; b < twoq.size(); ++b) {
            const auto &oa = step.op(twoq[a]);
            const auto &ob = step.op(twoq[b]);
            if (oa.touches(ob.q0) || oa.touches(ob.q1))
                conflict.addEdge(static_cast<int>(a),
                                 static_cast<int>(b));
        }
    auto color = graph::greedyColoring(conflict);
    EXPECT_EQ(s.twoQubitDepth(), graph::numColors(color));
}

TEST(ScheduleValidator, CatchesCorruption)
{
    // scheduleIsValid must reject a tampered schedule.
    std::mt19937_64 rng(202);
    auto h = ham::nnnIsing(6, rng);
    auto step = ham::trotterStep(h, 1.0);
    auto s = core::scheduleNoMap(step);
    EXPECT_TRUE(core::scheduleIsValid(
        step, device::allToAll(6), s));

    // Drop one op: multiset mismatch.
    core::ScheduleResult broken = s;
    broken.deviceCircuit = qcir::Circuit(6);
    for (int i = 0; i + 1 < s.deviceCircuit.size(); ++i)
        broken.deviceCircuit.add(s.deviceCircuit.op(i));
    EXPECT_FALSE(core::scheduleIsValid(
        step, device::allToAll(6), broken));

    // Tamper with a coefficient: payload mismatch.
    core::ScheduleResult tampered = s;
    for (auto &o : tampered.deviceCircuit.ops()) {
        if (o.kind == qcir::OpKind::Interact) {
            o.azz += 0.5;
            break;
        }
    }
    EXPECT_FALSE(core::scheduleIsValid(
        step, device::allToAll(6), tampered));
}

TEST(RoutingValidator, CatchesCorruption)
{
    std::mt19937_64 rng(203);
    auto h = ham::nnnIsing(6, rng);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(2, 3);
    auto place = qap::identityPlacement(6);
    auto r = core::routePermutationAware(step, place, topo, rng);
    ASSERT_TRUE(core::routingIsValid(step, topo, r));

    ASSERT_FALSE(r.swaps.empty());
    ASSERT_GT(r.dressedCount(), 0);

    // Corrupt the end of the map chain.
    auto broken = r;
    std::swap(broken.finalMap[0], broken.finalMap[1]);
    EXPECT_FALSE(core::routingIsValid(step, topo, broken));

    // Prepend a SWAP on (a, b) twice, with empty buckets after each:
    // the chain returns to the initial map, so only the inserted
    // SWAPs themselves can be at fault.
    auto withDoubleSwap = [&](int a, int b) {
        core::RoutingResult d = r;
        d.swaps.insert(d.swaps.begin(), 2, core::SwapStep{a, b});
        d.nnOps.insert(d.nnOps.begin() + 1, 2, std::vector<int>{});
        return d;
    };
    EXPECT_TRUE(core::routingIsValid(step, topo, withDoubleSwap(0, 1)));

    // A SWAP on a non-edge.
    ASSERT_FALSE(topo.connected(0, 5));
    EXPECT_FALSE(
        core::routingIsValid(step, topo, withDoubleSwap(0, 5)));

    // A dressed payload on the wrong pair: move one to an inserted
    // SWAP whose endpoints do not hold the payload's qubits.
    auto misdressed = withDoubleSwap(0, 1);
    for (auto &s : misdressed.swaps) {
        if (s.dressedOp < 0)
            continue;
        const auto &o = step.op(s.dressedOp);
        int a = r.initial[o.q0], b = r.initial[o.q1];
        ASSERT_FALSE((a == 0 && b == 1) || (a == 1 && b == 0));
        misdressed.swaps[0].dressedOp = s.dressedOp;
        s.dressedOp = -1;
        break;
    }
    EXPECT_FALSE(core::routingIsValid(step, topo, misdressed));

    // Drop a routed op.
    auto dropped = r;
    for (auto &bucket : dropped.nnOps) {
        if (!bucket.empty()) {
            bucket.pop_back();
            break;
        }
    }
    EXPECT_FALSE(core::routingIsValid(step, topo, dropped));
}
