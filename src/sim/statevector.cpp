#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/profile.h"
#include "sim/engine.h"
#include "simd/dispatch.h"

namespace tqan {
namespace sim {

using linalg::Cx;
using linalg::Mat2;
using linalg::Mat4;

namespace {

/** The SIMD dispatch table works on raw interleaved doubles
 * (std::complex<double> is layout-compatible, see simd/dispatch.h);
 * these casts are the bridge at the five dispatched call sites. */
inline double *
raw(Cx *p)
{
    return reinterpret_cast<double *>(p);
}

inline const double *
raw(const Cx *p)
{
    return reinterpret_cast<const double *>(p);
}

const Cx kZero(0.0, 0.0);
const Cx kOne(1.0, 0.0);
const Cx kMinusOne(-1.0, 0.0);

bool
isDiagonal4(const Mat4 &u)
{
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            if (r != c && u.at(r, c) != kZero)
                return false;
    return true;
}

/** Split-index parity tables: bit g of PL[lo] ^ PH[hi] is the parity
 * of (index & mask_g).  Shared by the fused ZZ sweep and the
 * branchless expectationZZ. */
void
buildParityTables(const std::vector<std::uint64_t> &masks, int n,
                  int &nlo, std::vector<std::uint64_t> &PL,
                  std::vector<std::uint64_t> &PH)
{
    nlo = (n + 1) / 2;
    const int nhi = n - nlo;
    const std::uint64_t loMask = (std::uint64_t(1) << nlo) - 1;
    PL.assign(std::uint64_t(1) << nlo, 0);
    PH.assign(std::uint64_t(1) << nhi, 0);
    for (size_t g = 0; g < masks.size(); ++g) {
        const std::uint64_t mlo = masks[g] & loMask;
        const std::uint64_t mhi = masks[g] >> nlo;
        for (std::uint64_t l = 0; l < PL.size(); ++l)
            PL[l] |= std::uint64_t(kern::popcount64(l & mlo) & 1)
                     << g;
        for (std::uint64_t h = 0; h < PH.size(); ++h)
            PH[h] |= std::uint64_t(kern::popcount64(h & mhi) & 1)
                     << g;
    }
}

} // namespace

Statevector::Statevector(int n, const Engine *eng)
    : n_(n), eng_(eng)
{
    if (n < 1 || n > kMaxQubits)
        throw std::invalid_argument(
            "Statevector: 1 <= n <= 30 (2^30 amplitudes = 16 GiB)");
    const std::uint64_t d = std::uint64_t(1) << n;
    try {
        amp_.assign(d, kZero);
    } catch (const std::bad_alloc &) {
        throw std::runtime_error(
            "Statevector: cannot allocate " +
            std::to_string(d * sizeof(Cx)) + " bytes for " +
            std::to_string(n) + " qubits");
    }
    amp_[0] = 1.0;
}

double
Statevector::probability(std::uint64_t basis) const
{
    return std::norm(amp_[basis]);
}

double
Statevector::norm() const
{
    const Cx *amp = amp_.data();
    double s = sumBlocks(
        eng_, std::uint64_t(1) << liveQubits_,
        [amp](std::uint64_t lo, std::uint64_t hi) {
            double p = 0.0;
            for (std::uint64_t i = lo; i < hi; ++i)
                p += std::norm(amp[i]);
            return p;
        });
    return std::sqrt(s);
}

void
Statevector::apply1q(int q, const Mat2 &u)
{
    if (q < 0 || q >= n_)
        throw std::invalid_argument("apply1q: qubit out of range");
    Cx *amp = amp_.data();
    const Cx u00 = u.at(0, 0), u01 = u.at(0, 1);
    const Cx u10 = u.at(1, 0), u11 = u.at(1, 1);
    const int om = liveQubits_;
    const std::uint64_t live = std::uint64_t(1) << om;
    const bool inSpan = q < om;

    if (u01 == kZero && u10 == kZero) {
        // Diagonal class (Rz, fused phase runs).  Support does not
        // grow; outside the span every live amplitude has bit q = 0.
        if (u00 == kOne && u11 == kMinusOne) {
            if (!inSpan)
                return;  // sign flip of an all-zero half
            forBlocks(eng_, live >> 1,
                      [amp, q](std::uint64_t lo, std::uint64_t hi) {
                          kern::apply1qSign(amp, q, lo, hi);
                      });
        } else {
            const double d01[4] = {u00.real(), u00.imag(),
                                   u11.real(), u11.imag()};
            const auto &kt = simd::kernels();
            forBlocks(eng_, live,
                      [amp, q, &d01, &kt](std::uint64_t lo,
                                          std::uint64_t hi) {
                          kt.apply1qDiag(raw(amp), q, d01, lo, hi);
                      });
        }
        return;
    }

    if (!inSpan)
        liveQubits_ = q + 1;
    const std::uint64_t pairs = inSpan ? live >> 1 : live;

    if (u00 == kZero && u11 == kZero) {
        // Anti-diagonal class (X, Y).
        if (u01 == kOne && u10 == kOne) {
            forBlocks(eng_, pairs,
                      [amp, q](std::uint64_t lo, std::uint64_t hi) {
                          kern::apply1qFlip(amp, q, lo, hi);
                      });
        } else {
            forBlocks(
                eng_, pairs,
                [amp, q, u01, u10](std::uint64_t lo,
                                   std::uint64_t hi) {
                    kern::apply1qAnti(amp, q, u01, u10, lo, hi);
                });
        }
        return;
    }
    forBlocks(eng_, pairs,
              [amp, q, &u](std::uint64_t lo, std::uint64_t hi) {
                  kern::apply1qGeneric(amp, q, u, lo, hi);
              });
}

void
Statevector::apply2q(int q0, int q1, const Mat4 &u)
{
    if (q0 < 0 || q0 >= n_ || q1 < 0 || q1 >= n_ || q0 == q1)
        throw std::invalid_argument("apply2q: bad qubit pair");
    Cx *amp = amp_.data();
    const int om = liveQubits_;
    const std::uint64_t live = std::uint64_t(1) << om;

    if (isDiagonal4(u)) {
        // Diagonal class (RZZ / CZ / CPhase — the dominant gates of
        // 2QAN/QAOA circuits): phase-only multiply; support does
        // not grow.
        const Cx d[4] = {u.at(0, 0), u.at(1, 1), u.at(2, 2),
                         u.at(3, 3)};
        const auto &kt = simd::kernels();
        forBlocks(eng_, live,
                  [amp, q0, q1, &d, &kt](std::uint64_t lo,
                                         std::uint64_t hi) {
                      kt.apply2qDiag(raw(amp), q0, q1, raw(d), lo,
                                     hi);
                  });
        return;
    }

    const int inSpan = (q0 < om ? 1 : 0) + (q1 < om ? 1 : 0);
    liveQubits_ = std::max(om, std::max(q0, q1) + 1);
    const std::uint64_t quads = live >> inSpan;

    // Swap-like class: only (0,0), (1,2), (2,1), (3,3) populated
    // (SWAP, iSWAP, ZZ-dressed SWAP).
    bool swapLike = u.at(1, 2) != kZero && u.at(2, 1) != kZero;
    for (int r = 0; r < 4 && swapLike; ++r)
        for (int c = 0; c < 4; ++c) {
            bool onPattern = (r == c && (r == 0 || r == 3)) ||
                             (r == 1 && c == 2) ||
                             (r == 2 && c == 1);
            if (!onPattern && u.at(r, c) != kZero) {
                swapLike = false;
                break;
            }
        }
    if (swapLike) {
        const Cx c00 = u.at(0, 0), c12 = u.at(1, 2);
        const Cx c21 = u.at(2, 1), c33 = u.at(3, 3);
        if (c00 == kOne && c12 == kOne && c21 == kOne &&
            c33 == kOne) {
            forBlocks(eng_, quads,
                      [amp, q0, q1](std::uint64_t lo,
                                    std::uint64_t hi) {
                          kern::apply2qSwap(amp, q0, q1, lo, hi);
                      });
        } else {
            forBlocks(eng_, quads,
                      [amp, q0, q1, c00, c12, c21,
                       c33](std::uint64_t lo, std::uint64_t hi) {
                          kern::apply2qSwapLike(amp, q0, q1, c00,
                                                c12, c21, c33, lo,
                                                hi);
                      });
        }
        return;
    }

    Cx m[16];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[r * 4 + c] = u.at(r, c);
    const auto &kt = simd::kernels();
    forBlocks(eng_, quads,
              [amp, q0, q1, &m, &kt](std::uint64_t lo,
                                     std::uint64_t hi) {
                  kt.apply2qGeneric(raw(amp), q0, q1, raw(m), lo,
                                    hi);
              });
}

void
Statevector::applyDiagRun(const std::vector<kern::DiagGate> &run)
{
    if (run.empty())
        return;
    Cx *amp = amp_.data();
    const std::uint64_t live = std::uint64_t(1) << liveQubits_;
    if (run.size() == 1) {
        const kern::DiagGate &g = run[0];
        const auto &kt = simd::kernels();
        forBlocks(eng_, live,
                  [amp, &g, &kt](std::uint64_t lo,
                                 std::uint64_t hi) {
                      kt.apply2qDiag(raw(amp), g.q0, g.q1,
                                     raw(g.d), lo, hi);
                  });
        return;
    }

    // Uniform parity-symmetric run (one QAOA cost layer: every gate
    // exp(i a ZZ) with the same angle): the run's phase at index i
    // depends only on how many gates see odd parity, so one packed
    // parity lookup + one table multiply covers the whole run.
    bool uniform = run.size() <= 64;
    const Cx d0 = run[0].d[0], d1 = run[0].d[1];
    for (const kern::DiagGate &g : run) {
        if (!(g.d[0] == d0 && g.d[3] == d0 && g.d[1] == d1 &&
              g.d[2] == d1)) {
            uniform = false;
            break;
        }
    }
    if (uniform) {
        std::vector<std::uint64_t> masks;
        masks.reserve(run.size());
        for (const kern::DiagGate &g : run)
            masks.push_back((std::uint64_t(1) << g.q0) |
                            (std::uint64_t(1) << g.q1));
        int nlo = 0;
        std::vector<std::uint64_t> PL, PH;
        buildParityTables(masks, n_, nlo, PL, PH);
        // tab[j] = d0^(k-j) * d1^j: j of the k gates at odd parity.
        const int k = static_cast<int>(run.size());
        std::vector<Cx> tab(k + 1);
        for (int j = 0; j <= k; ++j) {
            Cx v = kOne;
            for (int t = 0; t < k - j; ++t)
                v = kern::cmul(v, d0);
            for (int t = 0; t < j; ++t)
                v = kern::cmul(v, d1);
            tab[j] = v;
        }
        const std::uint64_t *pl = PL.data();
        const std::uint64_t *ph = PH.data();
        const Cx *tb = tab.data();
        const auto &kt = simd::kernels();
        forBlocks(eng_, live,
                  [amp, pl, ph, nlo, tb, &kt](std::uint64_t lo,
                                              std::uint64_t hi) {
                      kt.applyPackedPhase(raw(amp), pl, ph, nlo,
                                          raw(tb), lo, hi);
                  });
        return;
    }

    const kern::DiagGate *gates = run.data();
    const int count = static_cast<int>(run.size());
    forBlocks(eng_, live,
              [amp, gates, count](std::uint64_t lo,
                                  std::uint64_t hi) {
                  kern::applyDiagProduct(amp, gates, count, lo, hi);
              });
}

void
Statevector::applyOp(const qcir::Op &op)
{
    if (op.isTwoQubit())
        apply2q(op.q0, op.q1, op.unitary4());
    else
        apply1q(op.q0, op.unitary2());
}

void
Statevector::applyCircuit(const qcir::Circuit &c)
{
    if (c.numQubits() > n_)
        throw std::invalid_argument("applyCircuit: register too big");
    core::profile::ScopedTimer timer(simd::profileLabel,
                                     "sim.applyCircuit");
    GateStream gs(*this);
    for (const auto &op : c.ops())
        gs.add(op);
    gs.flush();
}

void
Statevector::applyPauli(int q, char axis)
{
    switch (axis) {
      case 'X':
        apply1q(q, linalg::pauliX());
        break;
      case 'Y':
        apply1q(q, linalg::pauliY());
        break;
      case 'Z':
        apply1q(q, linalg::pauliZ());
        break;
      default:
        throw std::invalid_argument("applyPauli: bad axis");
    }
}

double
Statevector::expectationZ(int q) const
{
    if (q < 0 || q >= n_)
        throw std::invalid_argument("expectationZ: qubit " +
                                    std::to_string(q) +
                                    " out of range");
    // Beyond the live span the bit is always 0 (amplitudes with it
    // set are exactly zero), so Z contributes +1 per unit of norm.
    if (q >= liveQubits_)
        return norm();
    const Cx *amp = amp_.data();
    const std::uint64_t mask = std::uint64_t(1) << q;
    return sumBlocks(
        eng_, std::uint64_t(1) << liveQubits_,
        [amp, mask](std::uint64_t lo, std::uint64_t hi) {
            double s = 0.0;
            for (std::uint64_t i = lo; i < hi; ++i)
                s += std::norm(amp[i]) *
                     ((i & mask) ? -1.0 : 1.0);
            return s;
        });
}

double
Statevector::expectationZZ(const graph::Graph &g) const
{
    return expectationZZ(g.edges());
}

double
Statevector::expectationZZ(
    const std::vector<graph::Edge> &edges) const
{
    core::profile::ScopedTimer timer(simd::profileLabel,
                                     "sim.expectationZZ");
    std::vector<std::uint64_t> masks;
    masks.reserve(edges.size());
    for (const auto &[u, v] : edges)
        masks.push_back((std::uint64_t(1) << u) |
                        (std::uint64_t(1) << v));
    const double nedges = static_cast<double>(edges.size());
    const Cx *amp = amp_.data();

    if (masks.size() <= 64) {
        int nlo = 0;
        std::vector<std::uint64_t> PL, PH;
        buildParityTables(masks, n_, nlo, PL, PH);
        const std::uint64_t *pl = PL.data();
        const std::uint64_t *ph = PH.data();
        const auto &kt = simd::kernels();
        return sumBlocks(
            eng_, std::uint64_t(1) << liveQubits_,
            [amp, pl, ph, nlo, nedges, &kt](std::uint64_t lo,
                                            std::uint64_t hi) {
                return kt.sumZZPacked(raw(amp), pl, ph, nlo,
                                      nedges, lo, hi);
            });
    }

    // > 64 edges: per-edge popcount parity, still branch-free.
    return sumBlocks(
        eng_, std::uint64_t(1) << liveQubits_,
        [amp, &masks, nedges](std::uint64_t lo, std::uint64_t hi) {
            double s = 0.0;
            for (std::uint64_t i = lo; i < hi; ++i) {
                int odd = 0;
                for (std::uint64_t m : masks)
                    odd += kern::popcount64(i & m) & 1;
                s += std::norm(amp[i]) * (nedges - 2.0 * odd);
            }
            return s;
        });
}

double
Statevector::fidelityWith(const Statevector &other) const
{
    if (other.n_ != n_)
        throw std::invalid_argument("fidelityWith: size mismatch");
    core::profile::ScopedTimer timer("sim.fidelity");
    const Cx *a = amp_.data();
    const Cx *b = other.amp_.data();
    // Terms past either state's live span pair a zero with
    // something, contributing exactly 0.
    const std::uint64_t live =
        std::uint64_t(1)
        << std::max(liveQubits_, other.liveQubits_);
    Cx ov = sumBlocksCx(
        eng_, live, [a, b](std::uint64_t lo, std::uint64_t hi) {
            Cx s(0.0, 0.0);
            for (std::uint64_t i = lo; i < hi; ++i)
                s += std::conj(b[i]) * a[i];
            return s;
        });
    return std::abs(ov);
}

std::uint64_t
Statevector::sample(std::mt19937_64 &rng) const
{
    // Single draw: the streaming scan needs no O(2^n) CDF buffer
    // (sampleMany's prefix array would transiently double the
    // memory footprint at large n).  Same accumulation order, so a
    // draw equals what sampleMany would return for this rng state.
    core::profile::ScopedTimer timer("sim.sample");
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const double r = uni(rng);
    double acc = 0.0;
    const std::uint64_t dimv = dim();
    for (std::uint64_t i = 0; i < dimv; ++i) {
        acc += std::norm(amp_[i]);
        if (r <= acc)
            return i;
    }
    return dimv - 1;
}

std::vector<std::uint64_t>
Statevector::sampleMany(std::mt19937_64 &rng, int shots) const
{
    if (shots < 1)
        throw std::invalid_argument("sampleMany: shots < 1");
    core::profile::ScopedTimer timer("sim.sample");

    // One O(2^n) pass builds the CDF (the same left-to-right
    // accumulation the old linear scan performed, so draws are
    // bit-identical to it); each draw is then a binary search.
    const std::uint64_t dimv = dim();
    std::vector<double> prefix(dimv);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < dimv; ++i) {
        acc += std::norm(amp_[i]);
        prefix[i] = acc;
    }

    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<std::uint64_t> out(shots);
    for (int s = 0; s < shots; ++s) {
        double r = uni(rng);
        auto it =
            std::lower_bound(prefix.begin(), prefix.end(), r);
        out[s] = it == prefix.end()
                     ? dimv - 1
                     : static_cast<std::uint64_t>(
                           it - prefix.begin());
    }
    return out;
}

GateStream::GateStream(Statevector &psi)
    : psi_(&psi),
      pend1q_(psi.numQubits()),
      has1q_(psi.numQubits(), 0)
{
}

GateStream::~GateStream()
{
    try {
        flush();
    } catch (...) {
        // flush() can only throw on allocation failure; the state
        // is then partially advanced and the stream is abandoned.
    }
}

void
GateStream::flushDiag()
{
    if (diag_.empty())
        return;
    psi_->applyDiagRun(diag_);
    diag_.clear();
    diagMask_ = 0;
}

void
GateStream::flushTwo(int q0, int q1)
{
    // Flush both qubits' pending 1q runs; when both are pending,
    // their Kronecker product hits the state in one 2q sweep
    // (halves the memory traffic of dense 1q layers).
    const bool f0 = has1q_[q0], f1 = has1q_[q1];
    if ((f0 && (diagMask_ & (std::uint64_t(1) << q0))) ||
        (f1 && (diagMask_ & (std::uint64_t(1) << q1))))
        flushDiag();
    if (f0 && f1) {
        psi_->apply2q(q0, q1,
                      linalg::kron(pend1q_[q1], pend1q_[q0]));
        has1q_[q0] = 0;
        has1q_[q1] = 0;
        return;
    }
    flushOne(q0);
    flushOne(q1);
}

void
GateStream::flushOne(int q)
{
    if (!has1q_[q])
        return;
    // Pending diagonal gates on q precede this 1q run (invariant),
    // so they must hit the state first.
    if (diagMask_ & (std::uint64_t(1) << q))
        flushDiag();
    psi_->apply1q(q, pend1q_[q]);
    has1q_[q] = 0;
}

void
GateStream::add(const qcir::Op &op)
{
    const int n = psi_->numQubits();
    if (op.q0 < 0 || op.q0 >= n ||
        (op.isTwoQubit() &&
         (op.q1 < 0 || op.q1 >= n || op.q1 == op.q0)))
        throw std::invalid_argument(
            "GateStream::add: bad qubit(s)");
    if (!op.isTwoQubit()) {
        Mat2 u = op.unitary2();
        pend1q_[op.q0] = has1q_[op.q0] ? u * pend1q_[op.q0] : u;
        has1q_[op.q0] = 1;
        return;
    }
    Mat4 u = op.unitary4();
    if (isDiagonal4(u)) {
        // Earlier 1q gates on these qubits must apply first; that
        // may in turn force the older diagonal run out (flushTwo).
        flushTwo(op.q0, op.q1);
        kern::DiagGate g;
        g.q0 = op.q0;
        g.q1 = op.q1;
        for (int i = 0; i < 4; ++i)
            g.d[i] = u.at(i, i);
        diag_.push_back(g);
        diagMask_ |= (std::uint64_t(1) << op.q0) |
                     (std::uint64_t(1) << op.q1);
        return;
    }
    // Non-diagonal 2q: conservative barrier — drain the diagonal
    // run, then this op's 1q runs, then apply.
    flushDiag();
    flushTwo(op.q0, op.q1);
    psi_->apply2q(op.q0, op.q1, u);
}

void
GateStream::addPauli(int q, char axis)
{
    if (q < 0 || q >= psi_->numQubits())
        throw std::invalid_argument(
            "GateStream::addPauli: qubit out of range");
    Mat2 u;
    switch (axis) {
      case 'X':
        u = linalg::pauliX();
        break;
      case 'Y':
        u = linalg::pauliY();
        break;
      case 'Z':
        u = linalg::pauliZ();
        break;
      default:
        throw std::invalid_argument("addPauli: bad axis");
    }
    pend1q_[q] = has1q_[q] ? u * pend1q_[q] : u;
    has1q_[q] = 1;
}

void
GateStream::flush()
{
    flushDiag();
    // Drain 1q runs in fused pairs (they all commute once the
    // diagonal run is out).
    int prev = -1;
    for (int q = 0; q < psi_->numQubits(); ++q) {
        if (!has1q_[q])
            continue;
        if (prev < 0) {
            prev = q;
            continue;
        }
        flushTwo(prev, q);
        prev = -1;
    }
    if (prev >= 0)
        flushOne(prev);
}

} // namespace sim
} // namespace tqan
