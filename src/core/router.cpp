#include "core/router.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "qap/placement.h"

namespace tqan {
namespace core {

using qap::Placement;

int
RoutingResult::dressedCount() const
{
    int c = 0;
    for (const auto &s : swaps)
        if (s.dressedOp >= 0)
            ++c;
    return c;
}

RoutingResult
routePermutationAware(const qcir::Circuit &circuit,
                      const Placement &initial,
                      const device::Topology &topo,
                      std::mt19937_64 &rng, const RouterOptions &opt)
{
    int n = circuit.numQubits();
    if (static_cast<int>(initial.size()) != n)
        throw std::invalid_argument("route: placement size mismatch");
    if (!qap::placementIsValid(initial, topo.numQubits()))
        throw std::invalid_argument("route: invalid placement");

    // Collect the two-qubit ops, and each logical qubit's ops: only
    // those move when a SWAP moves the qubit.
    std::vector<int> op_u, op_v, op_idx;
    std::vector<std::vector<int>> ops_of(n);
    for (int i = 0; i < circuit.size(); ++i) {
        const auto &o = circuit.op(i);
        if (o.isTwoQubit()) {
            int k = static_cast<int>(op_idx.size());
            op_idx.push_back(i);
            op_u.push_back(o.q0);
            op_v.push_back(o.q1);
            ops_of[o.q0].push_back(k);
            ops_of[o.q1].push_back(k);
        }
    }
    int m = static_cast<int>(op_idx.size());

    RoutingResult res;
    res.initial = initial;
    Placement phi = initial;
    std::vector<int> inv = qap::invertPlacement(phi, topo.numQubits());

    auto distOf = [&](int k) {
        return topo.dist(phi[op_u[k]], phi[op_v[k]]);
    };

    // Partition into already-NN and unrouted (kept ascending).
    std::vector<int> unrouted;
    res.nnOps.emplace_back();
    // routed_map[k] = index of the bucket holding op k; -1 while
    // unrouted, -2 once absorbed into a dressed SWAP.
    std::vector<int> routed_map(m, -1);
    for (int k = 0; k < m; ++k) {
        if (distOf(k) == 1) {
            res.nnOps[0].push_back(k);
            routed_map[k] = 0;
        } else {
            unrouted.push_back(k);
        }
    }

    // Calls f(k) for every op on logical qubit la or lb (either may
    // be -1, a free device qubit).  An op on both is visited twice,
    // which is harmless: a SWAP of its two qubits keeps its distance.
    auto forEachOpOn = [&](int la, int lb, auto &&f) {
        for (int l : {la, lb})
            if (l >= 0)
                for (int k : ops_of[l])
                    f(k);
    };

    // Approximate per-device-qubit busy time for criterion 2.
    std::vector<int> busy(topo.numQubits(), 0);
    for (int k : res.nnOps[0]) {
        ++busy[phi[op_u[k]]];
        ++busy[phi[op_v[k]]];
    }

    // Total remaining distance (criterion 1 bookkeeping).
    long total = 0;
    for (int k : unrouted)
        total += distOf(k);

    const long max_swaps =
        kMaxSwapFactor * std::max(1, m) *
            std::max(2, topo.numQubits()) / 2 +
        64;
    long iter = 0;
    int stagnation = 0;
    long best_seen = std::numeric_limits<long>::max();
    bool forced_mode = false;
    std::vector<int> touched;

    while (!unrouted.empty()) {
        if (++iter > max_swaps)
            throw std::runtime_error("route: livelock guard tripped");

        // Line 5: shortest-distance unrouted gate (first on ties).
        int g = unrouted[0];
        int gd = distOf(g);
        for (int k : unrouted) {
            if (distOf(k) < gd) {
                g = k;
                gd = distOf(k);
            }
        }

        // Line 6: candidate SWAPs on edges incident to g's qubits.
        int pu = phi[op_u[g]], pv = phi[op_v[g]];
        std::vector<std::pair<int, int>> cands;
        for (int nb : topo.neighbors(pu))
            cands.push_back({pu, nb});
        for (int nb : topo.neighbors(pv))
            if (nb != pu)
                cands.push_back({pv, nb});

        // Criterion 1: remaining total distance after the SWAP.
        // Only unrouted ops on the two swapped logical qubits change.
        auto costAfter = [&](int p, int q) {
            long t = total;
            forEachOpOn(inv[p], inv[q], [&](int k) {
                if (routed_map[k] != -1)
                    return;
                int du = phi[op_u[k]], dv = phi[op_v[k]];
                int nu = du == p ? q : (du == q ? p : du);
                int nv = dv == p ? q : (dv == q ? p : dv);
                t += topo.dist(nu, nv) - topo.dist(du, dv);
            });
            return t;
        };

        // Criterion 3 helper: an unabsorbed, already-routed Interact
        // op whose logical pair sits exactly on (p, q); the earliest
        // bucket wins, then the lowest op index.
        auto dressable = [&](int p, int q) -> int {
            if (!opt.unifySwaps)
                return -1;
            int la = inv[p], lb = inv[q];
            if (la < 0 || lb < 0)
                return -1;
            int best = -1;
            for (int k : ops_of[la]) {
                if (routed_map[k] < 0 ||
                    (op_u[k] != lb && op_v[k] != lb) ||
                    circuit.op(op_idx[k]).kind != qcir::OpKind::Interact)
                    continue;
                if (best < 0 || routed_map[k] < routed_map[best] ||
                    (routed_map[k] == routed_map[best] && k < best))
                    best = k;
            }
            return best;
        };

        // Evaluate criteria in priority order.
        std::vector<long> c1(cands.size());
        long best1 = 0;
        for (size_t i = 0; i < cands.size(); ++i) {
            c1[i] = costAfter(cands[i].first, cands[i].second);
            if (i == 0 || c1[i] < best1)
                best1 = c1[i];
        }
        std::vector<size_t> keep;
        for (size_t i = 0; i < cands.size(); ++i)
            if (c1[i] == best1)
                keep.push_back(i);

        // Stagnation fallback: if no new minimum of the remaining
        // cost has been reached for a while without routing any
        // gate, force progress on the selected gate g (and keep
        // forcing until a gate is actually routed).
        if (best1 < best_seen) {
            best_seen = best1;
            stagnation = 0;
        } else {
            ++stagnation;
        }
        if (stagnation > topo.numQubits() + 4)
            forced_mode = true;
        if (forced_mode) {
            std::vector<size_t> forced;
            for (size_t i : keep) {
                auto [p, q] = cands[i];
                int nu = pu == p ? q : (pu == q ? p : pu);
                int nv = pv == p ? q : (pv == q ? p : pv);
                if (topo.dist(nu, nv) < gd)
                    forced.push_back(i);
            }
            if (forced.empty()) {
                for (size_t i = 0; i < cands.size(); ++i) {
                    auto [p, q] = cands[i];
                    int nu = pu == p ? q : (pu == q ? p : pu);
                    int nv = pv == p ? q : (pv == q ? p : pv);
                    if (topo.dist(nu, nv) < gd)
                        forced.push_back(i);
                }
            }
            if (!forced.empty())
                keep = forced;
        }

        // Criterion 2: earliest-start estimate.
        int best2 = 0;
        bool first = true;
        std::vector<size_t> keep2;
        for (size_t i : keep) {
            int s = std::max(busy[cands[i].first],
                             busy[cands[i].second]);
            if (first || s < best2) {
                best2 = s;
                first = false;
            }
        }
        for (size_t i : keep)
            if (std::max(busy[cands[i].first], busy[cands[i].second]) ==
                best2)
                keep2.push_back(i);

        // Criterion 3: prefer dressable SWAPs.
        std::vector<size_t> keep3;
        std::vector<int> dress(keep2.size(), -1);
        for (size_t j = 0; j < keep2.size(); ++j) {
            dress[j] = dressable(cands[keep2[j]].first,
                                 cands[keep2[j]].second);
            if (dress[j] >= 0)
                keep3.push_back(j);
        }
        size_t pick_j;
        if (!keep3.empty()) {
            std::uniform_int_distribution<size_t> d(0,
                                                    keep3.size() - 1);
            pick_j = keep3[d(rng)];
        } else {
            std::uniform_int_distribution<size_t> d(0,
                                                    keep2.size() - 1);
            pick_j = d(rng);
        }
        size_t pick = keep2[pick_j];
        int sp = cands[pick].first, sq = cands[pick].second;
        int dressed = dress[pick_j];

        // Apply: record the SWAP, absorb the merged op, update map.
        SwapStep step;
        step.p = sp;
        step.q = sq;
        if (dressed >= 0) {
            step.dressedOp = op_idx[dressed];
            auto &bucket = res.nnOps[routed_map[dressed]];
            bucket.erase(
                std::lower_bound(bucket.begin(), bucket.end(), dressed));
            routed_map[dressed] = -2;  // absorbed
        }
        res.swaps.push_back(step);

        int la = inv[sp], lb = inv[sq];
        qap::applySwap(phi, inv, sp, sq);
        ++busy[sp];
        ++busy[sq];

        // Lines 9-10: newly-NN gates join the bucket of the new map.
        // Only ops on the two moved qubits can have become NN.
        int new_map = static_cast<int>(res.swaps.size());
        touched.clear();
        forEachOpOn(la, lb, [&](int k) {
            if (routed_map[k] == -1 && distOf(k) == 1)
                touched.push_back(k);
        });
        res.nnOps.emplace_back();
        // costAfter() of the pick is the new total over the old
        // unrouted set; each newly routed op contributes distance 1.
        total = c1[pick] - static_cast<long>(touched.size());
        if (!touched.empty()) {
            std::sort(touched.begin(), touched.end());
            for (int k : touched) {
                res.nnOps.back().push_back(k);
                routed_map[k] = new_map;
                ++busy[phi[op_u[k]]];
                ++busy[phi[op_v[k]]];
            }
            unrouted.erase(std::remove_if(unrouted.begin(),
                                          unrouted.end(),
                                          [&](int k) {
                                              return routed_map[k] ==
                                                     new_map;
                                          }),
                           unrouted.end());
            // Progress: a gate was routed; leave forced mode.
            forced_mode = false;
            stagnation = 0;
            best_seen = std::numeric_limits<long>::max();
        }
    }

    res.finalMap = std::move(phi);
    // Translate op positions back to circuit indices (dressedOp was
    // already stored as a circuit index at absorb time).
    for (auto &bucket : res.nnOps)
        for (int &k : bucket)
            k = op_idx[k];
    return res;
}

bool
routingIsValid(const qcir::Circuit &circuit,
               const device::Topology &topo, const RoutingResult &r)
{
    if (r.nnOps.size() != r.swaps.size() + 1 ||
        static_cast<int>(r.initial.size()) != circuit.numQubits() ||
        !qap::placementIsValid(r.initial, topo.numQubits()))
        return false;

    // Replay the chain.  Every two-qubit op appears exactly once: in
    // a bucket (NN under that bucket's map) or as a dressed SWAP
    // payload (on the SWAP's endpoints under the map in force when
    // the SWAP ran).
    Placement phi = r.initial;
    std::vector<int> inv = qap::invertPlacement(phi, topo.numQubits());
    std::vector<int> seen(circuit.size(), 0);
    for (size_t mi = 0; mi < r.nnOps.size(); ++mi) {
        for (int oi : r.nnOps[mi]) {
            const auto &o = circuit.op(oi);
            if (!o.isTwoQubit())
                return false;
            if (topo.dist(phi[o.q0], phi[o.q1]) != 1)
                return false;
            ++seen[oi];
        }
        if (mi == r.swaps.size())
            break;
        const SwapStep &s = r.swaps[mi];
        if (!topo.connected(s.p, s.q))
            return false;
        if (s.dressedOp >= 0) {
            const auto &o = circuit.op(s.dressedOp);
            if (!o.isTwoQubit())
                return false;
            int a = phi[o.q0], b = phi[o.q1];
            if (!((a == s.p && b == s.q) || (a == s.q && b == s.p)))
                return false;
            ++seen[s.dressedOp];
        }
        qap::applySwap(phi, inv, s.p, s.q);
    }
    if (phi != r.finalMap)
        return false;
    for (int i = 0; i < circuit.size(); ++i)
        if (seen[i] != (circuit.op(i).isTwoQubit() ? 1 : 0))
            return false;
    return true;
}

} // namespace core
} // namespace tqan
