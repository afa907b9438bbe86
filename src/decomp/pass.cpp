#include "decomp/pass.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decomp/kak.h"
#include "decomp/native_count.h"

namespace tqan {
namespace decomp {

using device::GateSet;
using linalg::Mat2;
using linalg::Mat4;
using qcir::Circuit;
using qcir::Op;
using qcir::OpKind;

namespace {

/**
 * Reduce an interaction coefficient mod pi/2 into [-pi/4, pi/4].
 * e^{i pi/2 XX} = i XX (and likewise for YY/ZZ), so every odd shift
 * contributes a Pauli (x) Pauli correction, which commutes with the
 * whole interaction and is collected by the caller.
 */
double
reduceCoeff(double a, bool &odd_shift)
{
    double k = std::round(a / (M_PI / 2.0));
    odd_shift = (static_cast<long long>(k) % 2LL) != 0;
    return a - k * (M_PI / 2.0);
}

/**
 * Emit the two-CNOT block e^{i a XX} e^{i c ZZ} on (q0, q1):
 * CNOT(q0,q1) Rx_{q0}(-2a) Rz_{q1}(-2c) CNOT(q0,q1).  Validity: for
 * CNOT with control q0, conjugation maps X_{q0} -> X X and
 * Z_{q1} -> Z Z.
 */
void
emitXzBlock(Circuit &out, int q0, int q1, double a, double c)
{
    out.add(Op::cnot(q0, q1));
    if (a != 0.0)
        out.add(Op::rx(q0, -2.0 * a));
    if (c != 0.0)
        out.add(Op::rz(q1, -2.0 * c));
    out.add(Op::cnot(q0, q1));
}

/** Emit e^{i(a XX + b YY + c ZZ)} into CNOTs + 1q rotations. */
void
emitInteract(Circuit &out, int q0, int q1, double a, double b,
             double c)
{
    const double eps = 1e-12;
    bool sx, sy, sz;
    a = reduceCoeff(a, sx);
    b = reduceCoeff(b, sy);
    c = reduceCoeff(c, sz);
    // Pauli (x) Pauli corrections from the mod-pi/2 shifts.
    if (sx) {
        out.add(Op::u1q(q0, linalg::pauliX()));
        out.add(Op::u1q(q1, linalg::pauliX()));
    }
    if (sy) {
        out.add(Op::u1q(q0, linalg::pauliY()));
        out.add(Op::u1q(q1, linalg::pauliY()));
    }
    if (sz) {
        out.add(Op::u1q(q0, linalg::pauliZ()));
        out.add(Op::u1q(q1, linalg::pauliZ()));
    }

    bool na = std::abs(a) > eps;
    bool nb = std::abs(b) > eps;
    bool nc = std::abs(c) > eps;
    if (!na && !nb && !nc)
        return;

    if (!nb) {
        emitXzBlock(out, q0, q1, a, c);
        return;
    }
    if (!nc) {
        // Conjugate by W = Rx(pi/2) x Rx(pi/2): ZZ -> YY, XX -> XX.
        out.add(Op::rx(q0, -M_PI / 2.0));
        out.add(Op::rx(q1, -M_PI / 2.0));
        emitXzBlock(out, q0, q1, a, b);
        out.add(Op::rx(q0, M_PI / 2.0));
        out.add(Op::rx(q1, M_PI / 2.0));
        return;
    }
    if (!na) {
        // Conjugate by V = Rz(pi/2) x Rz(pi/2): XX -> YY, ZZ -> ZZ.
        out.add(Op::rz(q0, -M_PI / 2.0));
        out.add(Op::rz(q1, -M_PI / 2.0));
        emitXzBlock(out, q0, q1, b, c);
        out.add(Op::rz(q0, M_PI / 2.0));
        out.add(Op::rz(q1, M_PI / 2.0));
        return;
    }
    // All three axes: e^{i c ZZ} block then the XX+YY block (they
    // commute).  Constructive 4-CNOT form; see pass.h notes.
    emitXzBlock(out, q0, q1, 0.0, c);
    out.add(Op::rx(q0, -M_PI / 2.0));
    out.add(Op::rx(q1, -M_PI / 2.0));
    emitXzBlock(out, q0, q1, a, b);
    out.add(Op::rx(q0, M_PI / 2.0));
    out.add(Op::rx(q1, M_PI / 2.0));
}

void
emitSwap(Circuit &out, int q0, int q1)
{
    out.add(Op::cnot(q0, q1));
    out.add(Op::cnot(q1, q0));
    out.add(Op::cnot(q0, q1));
}

/** KAK-based emission for an arbitrary two-qubit unitary payload. */
void
emitU2q(Circuit &out, int q0, int q1, const Mat4 &u)
{
    Kak k = kakDecompose(u);
    // Right locals first (b acts before the interaction).
    out.add(Op::u1q(q0, k.b0));
    out.add(Op::u1q(q1, k.b1));
    emitInteract(out, q0, q1, k.cx, k.cy, k.cz);
    out.add(Op::u1q(q0, k.a0));
    out.add(Op::u1q(q1, k.a1));
}

} // namespace

Circuit
decomposeToCnot(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (const auto &op : c.ops()) {
        switch (op.kind) {
          case OpKind::Rx:
          case OpKind::Ry:
          case OpKind::Rz:
          case OpKind::U1q:
            out.add(op);
            break;
          case OpKind::Interact:
            emitInteract(out, op.q0, op.q1, op.axx, op.ayy, op.azz);
            break;
          case OpKind::Swap:
            emitSwap(out, op.q0, op.q1);
            break;
          case OpKind::DressedSwap:
            // Interact then SWAP; the adjacent-CNOT cleanup below
            // removes the touching CNOT pair.
            emitInteract(out, op.q0, op.q1, op.axx, op.ayy, op.azz);
            emitSwap(out, op.q0, op.q1);
            break;
          case OpKind::Cnot:
            out.add(op);
            break;
          case OpKind::Cz:
            out.add(Op::u1q(op.q1, linalg::hadamard()));
            out.add(Op::cnot(op.q0, op.q1));
            out.add(Op::u1q(op.q1, linalg::hadamard()));
            break;
          case OpKind::ISwap:
          case OpKind::Syc:
          case OpKind::U2q:
            emitU2q(out, op.q0, op.q1, op.unitary4());
            break;
        }
    }
    return cancelAdjacentCnots(out);
}

Circuit
decomposeToCz(const Circuit &c)
{
    Circuit cn = decomposeToCnot(c);
    Circuit out(cn.numQubits());
    for (const auto &op : cn.ops()) {
        if (op.kind == OpKind::Cnot) {
            out.add(Op::u1q(op.q1, linalg::hadamard()));
            out.add(Op::cz(op.q0, op.q1));
            out.add(Op::u1q(op.q1, linalg::hadamard()));
        } else {
            out.add(op);
        }
    }
    return mergeAdjacent1q(out);
}

Circuit
expandForMetrics(const Circuit &c, GateSet gs)
{
    Circuit out(c.numQubits());
    Mat2 id = Mat2::identity();
    auto native = [gs](int a, int b) {
        switch (gs) {
          case GateSet::Cnot: return Op::cnot(a, b);
          case GateSet::Cz: return Op::cz(a, b);
          case GateSet::ISwap: return Op::iswap(a, b);
          case GateSet::Syc: return Op::syc(a, b);
        }
        return Op::cz(a, b);
    };
    for (const auto &op : c.ops()) {
        if (!op.isTwoQubit()) {
            out.add(op);
            continue;
        }
        int k = nativeCountOp(op, gs);
        if (k == 0) {
            out.add(Op::u1q(op.q0, id));
            out.add(Op::u1q(op.q1, id));
            continue;
        }
        out.add(Op::u1q(op.q0, id));
        out.add(Op::u1q(op.q1, id));
        for (int i = 0; i < k; ++i) {
            out.add(native(op.q0, op.q1));
            out.add(Op::u1q(op.q0, id));
            out.add(Op::u1q(op.q1, id));
        }
    }
    return mergeAdjacent1q(out);
}

ExpandedCounts
countExpanded(const Circuit &c, GateSet gs)
{
    ExpandedCounts r;
    int n = c.numQubits();
    std::vector<int> level(n, 0), level2q(n, 0);
    std::vector<char> last1q(n, 0);
    // The op sequence expandForMetrics emits, counted as emitted.
    auto oneQubit = [&](int q) {
        if (last1q[q])
            return;  // merged into the previous 1q op
        last1q[q] = 1;
        r.depth = std::max(r.depth, ++level[q]);
    };
    auto twoQubit = [&](int a, int b) {
        int t = std::max(level[a], level[b]) + 1;
        level[a] = level[b] = t;
        r.depth = std::max(r.depth, t);
        int t2 = std::max(level2q[a], level2q[b]) + 1;
        level2q[a] = level2q[b] = t2;
        r.twoQubitDepth = std::max(r.twoQubitDepth, t2);
        last1q[a] = last1q[b] = 0;
        ++r.twoQubit;
    };
    for (const auto &op : c.ops()) {
        if (!op.isTwoQubit()) {
            oneQubit(op.q0);
            continue;
        }
        oneQubit(op.q0);
        oneQubit(op.q1);
        for (int i = nativeCountOp(op, gs); i > 0; --i) {
            twoQubit(op.q0, op.q1);
            oneQubit(op.q0);
            oneQubit(op.q1);
        }
    }
    return r;
}

Circuit
cancelAdjacentCnots(const Circuit &c)
{
    // One stack of surviving ops per wire, linked through the ops:
    // top[q] = last survivor on qubit q (-1: none), below[2i + w] =
    // the survivor under op i on its wire w (0: q0, 1: q1).  A CNOT
    // whose two wires both top out at the same identical CNOT cancels
    // with it, and both wires fall back to the ops before (exposing
    // cascades).
    const std::vector<Op> &ops = c.ops();
    std::vector<int> top(c.numQubits(), -1), below(2 * ops.size(), -1);
    std::vector<char> alive(ops.size(), 1);
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
        const Op &op = ops[i];
        if (op.kind == OpKind::Cnot) {
            int j = top[op.q0];
            if (j >= 0 && j == top[op.q1] &&
                ops[j].kind == OpKind::Cnot && ops[j].q0 == op.q0 &&
                ops[j].q1 == op.q1) {
                top[op.q0] = below[2 * j];
                top[op.q1] = below[2 * j + 1];
                alive[j] = alive[i] = 0;
                continue;
            }
        }
        below[2 * i] = top[op.q0];
        top[op.q0] = i;
        if (op.isTwoQubit()) {
            below[2 * i + 1] = top[op.q1];
            top[op.q1] = i;
        }
    }
    Circuit out(c.numQubits());
    for (size_t i = 0; i < ops.size(); ++i)
        if (alive[i])
            out.add(ops[i]);
    return out;
}

Circuit
mergeAdjacent1q(const Circuit &c)
{
    Circuit out(c.numQubits());
    std::vector<int> last(c.numQubits(), -1);
    for (const auto &op : c.ops()) {
        if (op.isTwoQubit()) {
            out.add(op);
            last[op.q0] = last[op.q1] = out.size() - 1;
            continue;
        }
        int l = last[op.q0];
        if (l >= 0 && !out.ops()[l].isTwoQubit()) {
            // Compose: the earlier op acts first.
            Mat2 merged = op.unitary2() * out.ops()[l].unitary2();
            out.ops()[l] = Op::u1q(op.q0, merged);
        } else {
            out.add(op);
            last[op.q0] = out.size() - 1;
        }
    }
    return out;
}

Circuit
mergeAdjacentSamePair(const Circuit &c)
{
    std::vector<Op> out;
    out.reserve(c.size());

    // Unitary of an op in the canonical frame where `qa` is bit 0.
    auto frame4 = [](const Op &op, int qa, int qb) {
        if (!op.isTwoQubit()) {
            Mat2 u = op.unitary2();
            return op.q0 == qa ? linalg::kron(Mat2::identity(), u)
                               : linalg::kron(u, Mat2::identity());
        }
        Mat4 u = op.unitary4();
        (void)qb;
        if (op.q0 == qa)
            return u;
        return linalg::swapGate() * u * linalg::swapGate();
    };

    for (const auto &op : c.ops()) {
        if (!op.isTwoQubit()) {
            out.push_back(op);
            continue;
        }
        int qa = std::min(op.q0, op.q1), qb = std::max(op.q0, op.q1);
        // Walk the output suffix: ops touching only {qa, qb}; merge
        // if we reach a two-qubit op on exactly this pair.
        int j = static_cast<int>(out.size()) - 1;
        bool can_merge = false;
        while (j >= 0) {
            const Op &p = out[j];
            bool inside = p.isTwoQubit()
                              ? (std::min(p.q0, p.q1) == qa &&
                                 std::max(p.q0, p.q1) == qb)
                              : (p.q0 == qa || p.q0 == qb);
            if (!inside)
                break;
            if (p.isTwoQubit()) {
                can_merge = true;
                break;
            }
            --j;
        }
        if (!can_merge) {
            out.push_back(op);
            continue;
        }
        // Fold the suffix (latest first) into one matrix.
        Mat4 acc = frame4(op, qa, qb);
        while (static_cast<int>(out.size()) - 1 >= j) {
            Op p = out.back();
            out.pop_back();
            acc = acc * frame4(p, qa, qb);
            if (p.isTwoQubit())
                break;  // p was the anchor two-qubit op
        }
        out.push_back(Op::u2q(qa, qb, acc));
    }

    Circuit r(c.numQubits());
    for (const auto &op : out)
        r.add(op);
    return r;
}

} // namespace decomp
} // namespace tqan
