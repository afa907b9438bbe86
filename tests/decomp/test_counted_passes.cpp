/**
 * @file
 * The one-pass post-synthesis mechanisms against the expanded forms
 * they replace:
 *
 *  - cancelAdjacentCnots (one pass, per-wire stacks) against the
 *    restart-scan reference kept verbatim below, op for op, on random
 *    small circuits built to cascade and on a device-shaped circuit
 *    with thousands of dressed SWAPs;
 *  - countExpanded against expandForMetrics' counts for every gate
 *    set, on random device circuits with zero-cost two-qubit ops and
 *    runs of single-qubit ops.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "decomp/native_count.h"
#include "decomp/pass.h"
#include "device/devices.h"

using namespace tqan;
using namespace tqan::decomp;
using qcir::Circuit;
using qcir::Op;
using qcir::OpKind;

namespace {

/** The restart-scan cancellation: after every cancelled pair, scan
 * again from op 0.  O(cancellations x ops); the reference only. */
Circuit
referenceCancelAdjacentCnots(const Circuit &c)
{
    std::vector<Op> ops = c.ops();
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<int> last(c.numQubits(), -1);
        for (size_t i = 0; i < ops.size() && !changed; ++i) {
            const Op &op = ops[i];
            if (op.kind == OpKind::Cnot) {
                int l0 = last[op.q0], l1 = last[op.q1];
                if (l0 >= 0 && l0 == l1 &&
                    ops[l0].kind == OpKind::Cnot &&
                    ops[l0].q0 == op.q0 && ops[l0].q1 == op.q1) {
                    ops.erase(ops.begin() + i);
                    ops.erase(ops.begin() + l0);
                    changed = true;
                    break;
                }
            }
            last[op.q0] = static_cast<int>(i);
            if (op.isTwoQubit())
                last[op.q1] = static_cast<int>(i);
        }
    }
    Circuit out(c.numQubits());
    for (const auto &op : ops)
        out.add(op);
    return out;
}

/** Op-for-op identity of two circuits (gtest failure on mismatch). */
::testing::AssertionResult
sameOps(const Circuit &a, const Circuit &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.size() << " vs " << b.size();
    for (int i = 0; i < a.size(); ++i) {
        const Op &x = a.op(i), &y = b.op(i);
        if (x.kind != y.kind || x.q0 != y.q0 || x.q1 != y.q1 ||
            x.theta != y.theta)
            return ::testing::AssertionFailure()
                   << "op " << i << ": " << x.str() << " vs "
                   << y.str();
    }
    return ::testing::AssertionSuccess();
}

/** Random circuit over CNOT runs, Rz, CZ and SWAP on 2-5 qubits:
 * runs of one CNOT, possibly nested around other CNOT runs, are what
 * makes cancellations cascade. */
Circuit
randomCnotCircuit(std::mt19937_64 &rng)
{
    int n = std::uniform_int_distribution<int>(2, 5)(rng);
    int len = std::uniform_int_distribution<int>(1, 24)(rng);
    std::uniform_int_distribution<int> qubit(0, n - 1);
    std::uniform_int_distribution<int> kind(0, 9);
    std::uniform_int_distribution<int> run(1, 4);
    Circuit c(n);
    for (int i = 0; i < len; ++i) {
        int a = qubit(rng), b = qubit(rng);
        while (b == a)
            b = qubit(rng);
        int k = kind(rng);
        if (k < 6) {
            for (int r = run(rng); r > 0; --r)
                c.add(Op::cnot(a, b));
        } else if (k == 6) {
            c.add(Op::rz(a, 0.25 * (i + 1)));
        } else if (k == 7) {
            c.add(Op::cz(a, b));
        } else if (k == 8) {
            c.add(Op::swap(a, b));
        } else {
            // A palindrome CX(a,b) CX(b,a) CX(b,a) CX(a,b): cancels
            // only by cascade.
            c.add(Op::cnot(a, b));
            c.add(Op::cnot(b, a));
            c.add(Op::cnot(b, a));
            c.add(Op::cnot(a, b));
        }
    }
    return c;
}

/** Random circuit on device edges: the op mix a scheduled 2QAN
 * circuit carries (Interact, SWAP, dressed SWAP, 1q runs) plus native
 * and arbitrary two-qubit gates, including zero-cost ones. */
Circuit
randomDeviceCircuit(std::mt19937_64 &rng, const device::Topology &topo,
                    int len)
{
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < topo.numQubits(); ++u)
        for (int v : topo.neighbors(u))
            if (u < v)
                edges.push_back({u, v});
    std::uniform_int_distribution<size_t> edge(0, edges.size() - 1);
    std::uniform_int_distribution<int> qubit(0, topo.numQubits() - 1);
    std::uniform_int_distribution<int> kind(0, 11);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    Circuit c(topo.numQubits());
    for (int i = 0; i < len; ++i) {
        auto [a, b] = edges[edge(rng)];
        if (rng() % 2)
            std::swap(a, b);
        switch (kind(rng)) {
          case 0:
            c.add(Op::interact(a, b, ang(rng), ang(rng), ang(rng)));
            break;
          case 1:
            c.add(Op::interact(a, b, 0, 0, ang(rng)));
            break;
          case 2:
            // Zero-cost two-qubit ops: identity and a Pauli product.
            c.add(rng() % 2 ? Op::interact(a, b, 0, 0, 0)
                            : Op::interact(a, b, M_PI / 2, 0, 0));
            break;
          case 3:
            c.add(Op::swap(a, b));
            break;
          case 4:
            c.add(Op::dressedSwap(a, b, ang(rng), ang(rng), ang(rng)));
            break;
          case 5:
            c.add(Op::cnot(a, b));
            break;
          case 6:
            c.add(Op::cz(a, b));
            break;
          case 7:
            c.add(Op::iswap(a, b));
            break;
          case 8:
            c.add(Op::syc(a, b));
            break;
          default: {
              // A run of single-qubit ops on one wire.
              int q = qubit(rng);
              for (int r = 1 + static_cast<int>(rng() % 3); r > 0; --r)
                  c.add(Op::rz(q, ang(rng)));
              break;
          }
        }
    }
    return c;
}

} // namespace

TEST(CancelAdjacentCnots, MatchesRestartScanOnRandomCircuits)
{
    std::mt19937_64 rng(20260);
    long cancelled = 0;
    for (int t = 0; t < 20000; ++t) {
        Circuit c = randomCnotCircuit(rng);
        Circuit want = referenceCancelAdjacentCnots(c);
        ASSERT_TRUE(sameOps(cancelAdjacentCnots(c), want))
            << "circuit " << t;
        cancelled += c.size() - want.size();
    }
    // The generator must actually exercise cancellation.
    EXPECT_GT(cancelled, 50000);
}

TEST(CancelAdjacentCnots, MatchesRestartScanOnDressedSwapCircuit)
{
    // The synthesis input of a device circuit: each dressed SWAP
    // emits its interaction then its SWAP.  With a ZZ payload (QAOA's
    // dressed SWAPs) the two touch in a CNOT pair the pass removes,
    // so every such dressed SWAP is at least one cancellation.
    device::Topology topo = device::grid(8, 8);
    std::mt19937_64 rng(77);
    Circuit device = randomDeviceCircuit(rng, topo, 1500);
    std::uniform_int_distribution<int> qubit(0, topo.numQubits() - 1);
    for (int i = 0; i < 2500; ++i) {
        int a = qubit(rng);
        const auto &nb = topo.neighbors(a);
        int b = nb[rng() % nb.size()];
        device.add(Op::dressedSwap(a, b, 0, 0, 0.1 * (1 + i % 7)));
    }
    Circuit emitted(topo.numQubits());
    int dressed = 0;
    for (const Op &op : device.ops()) {
        Circuit part(topo.numQubits());
        if (op.kind != OpKind::DressedSwap) {
            part.add(op);
            emitted.append(decomposeToCnot(part));
            continue;
        }
        ++dressed;
        part.add(Op::interact(op.q0, op.q1, op.axx, op.ayy, op.azz));
        emitted.append(decomposeToCnot(part));
        part = Circuit(topo.numQubits());
        part.add(Op::swap(op.q0, op.q1));
        emitted.append(decomposeToCnot(part));
    }
    ASSERT_GT(dressed, 2500);
    Circuit want = referenceCancelAdjacentCnots(emitted);
    EXPECT_LE(want.size(), emitted.size() - 2 * 2500);
    EXPECT_TRUE(sameOps(cancelAdjacentCnots(emitted), want));
}

TEST(CountExpanded, MatchesExpandForMetrics)
{
    const device::GateSet sets[] = {
        device::GateSet::Cnot, device::GateSet::Cz,
        device::GateSet::ISwap, device::GateSet::Syc};
    const device::Topology topos[] = {device::grid(3, 4),
                                      device::heavyHex(3),
                                      device::line(2)};
    std::mt19937_64 rng(5150);
    int zeroCost = 0;
    for (int t = 0; t < 300; ++t) {
        const device::Topology &topo = topos[t % 3];
        Circuit c = randomDeviceCircuit(rng, topo, 1 + t % 60);
        for (device::GateSet gs : sets) {
            Circuit e = expandForMetrics(c, gs);
            ExpandedCounts n = countExpanded(c, gs);
            ASSERT_EQ(n.twoQubit, e.twoQubitCount()) << t;
            ASSERT_EQ(n.twoQubitDepth, e.twoQubitDepth()) << t;
            ASSERT_EQ(n.depth, e.depth()) << t;
        }
        for (const Op &op : c.ops())
            if (op.isTwoQubit() &&
                nativeCountOp(op, device::GateSet::Cnot) == 0)
                ++zeroCost;
    }
    EXPECT_GT(zeroCost, 100);
    ExpandedCounts empty = countExpanded(Circuit(4), device::GateSet::Cz);
    EXPECT_EQ(empty.twoQubit + empty.twoQubitDepth + empty.depth, 0);
}
