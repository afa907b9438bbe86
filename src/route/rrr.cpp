#include "route/rrr.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "qap/placement.h"
#include "route/cost_model.h"
#include "route/path_search.h"

namespace tqan {
namespace route {

using core::RouterOptions;
using core::RoutingResult;
using core::SwapStep;
using qap::Placement;

RoutingResult
routeNegotiatedCongestion(const qcir::Circuit &circuit,
                          const Placement &initial,
                          const device::Topology &topo,
                          std::mt19937_64 &rng,
                          const RouterOptions &opt)
{
    // Every tie-break is deterministic (vertex/net index order), so
    // the router never draws from the generator; the compile seed
    // still steers the mapper trials upstream.
    (void)rng;

    int n = circuit.numQubits();
    if (static_cast<int>(initial.size()) != n)
        throw std::invalid_argument("route: placement size mismatch");
    if (!qap::placementIsValid(initial, topo.numQubits()))
        throw std::invalid_argument("route: invalid placement");

    // Collect the two-qubit ops, with each logical qubit's incident
    // ops in ascending op order.
    std::vector<int> op_u, op_v, op_idx;
    std::vector<std::vector<int>> incident(n);
    std::vector<char> interact;
    for (int i = 0; i < circuit.size(); ++i) {
        const auto &o = circuit.op(i);
        if (o.isTwoQubit()) {
            int k = static_cast<int>(op_idx.size());
            op_idx.push_back(i);
            op_u.push_back(o.q0);
            op_v.push_back(o.q1);
            interact.push_back(o.kind == qcir::OpKind::Interact);
            incident[o.q0].push_back(k);
            incident[o.q1].push_back(k);
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
    // Calls f(k) once for every op on logical qubit la or lb (either
    // may be -1, an empty device qubit).
    auto forOpsOn = [&](int la, int lb, auto &&f) {
        if (la >= 0)
            for (int k : incident[la])
                f(k);
        if (lb >= 0)
            for (int k : incident[lb])
                if (op_u[k] != la && op_v[k] != la)
                    f(k);
    };

    // Routed, unabsorbed Interact ops per logical qubit in routing
    // order (the scan order of the nnOps buckets), and the bucket
    // each op went into: the dressed-SWAP candidates.
    std::vector<std::vector<int>> dressCands(n);
    std::vector<int> bucketOf(m, -1);
    auto markRouted = [&](int k) {
        bucketOf[k] = static_cast<int>(res.nnOps.size()) - 1;
        res.nnOps.back().push_back(k);
        if (interact[k]) {
            dressCands[op_u[k]].push_back(k);
            dressCands[op_v[k]].push_back(k);
        }
    };

    // Partition into already-NN and unrouted (the nets).  `unrouted`
    // stays ascending; ops routed mid-epoch only clear their flag and
    // leave the list at the epoch's end.
    std::vector<int> unrouted;
    std::vector<char> isUnrouted(m, 0);
    res.nnOps.emplace_back();
    for (int k = 0; k < m; ++k) {
        if (distOf(k) == 1) {
            markRouted(k);
        } else {
            unrouted.push_back(k);
            isUnrouted[k] = 1;
        }
    }

    const long max_swaps =
        core::kMaxSwapFactor * std::max(1, m) *
            std::max(2, topo.numQubits()) / 2 +
        64;
    long iter = 0;

    // Same dressed-SWAP merging as the greedy router: the first
    // routed, unabsorbed Interact op whose logical pair sits on (p, q).
    auto dressable = [&](int p, int q) -> int {
        if (!opt.unifySwaps)
            return -1;
        int la = inv[p], lb = inv[q];
        if (la < 0 || lb < 0)
            return -1;
        for (int k : dressCands[la])
            if (op_u[k] == lb || op_v[k] == lb)
                return k;
        return -1;
    };
    auto eraseOne = [](std::vector<int> &v, int k) {
        v.erase(std::find(v.begin(), v.end(), k));
    };

    // Apply one SWAP on device edge (sp, sq): absorb a mergeable op,
    // move the two occupants, bucket their newly nearest-neighbour
    // nets.  No other op's distance changes.
    std::vector<int> newlyNN;
    auto applySwap = [&](int sp, int sq) {
        if (++iter > max_swaps)
            throw std::runtime_error("route: livelock guard tripped");
        SwapStep step;
        step.p = sp;
        step.q = sq;
        int dressed = dressable(sp, sq);
        if (dressed >= 0) {
            step.dressedOp = op_idx[dressed];
            eraseOne(res.nnOps[bucketOf[dressed]], dressed);
            eraseOne(dressCands[op_u[dressed]], dressed);
            eraseOne(dressCands[op_v[dressed]], dressed);
        }
        res.swaps.push_back(step);
        qap::applySwap(phi, inv, sp, sq);
        res.nnOps.emplace_back();
        newlyNN.clear();
        forOpsOn(inv[sp], inv[sq], [&](int k) {
            if (isUnrouted[k] && distOf(k) == 1)
                newlyNN.push_back(k);
        });
        std::sort(newlyNN.begin(), newlyNN.end());
        for (int k : newlyNN) {
            isUnrouted[k] = 0;
            markRouted(k);
        }
    };

    // History persists across epochs — contention memory is the
    // negotiation's whole point.
    CostModel cost(topo.numQubits(), kRrrPresentWeight, kRrrHistoryWeight);
    SearchWorkspace ws(topo.numQubits());
    // Planned path per op; only the current epoch's nets are read.
    std::vector<std::vector<int>> plan(m);
    // Commit-phase bias, back at 0.5 everywhere between nets.
    std::vector<double> bias(topo.numQubits(), 0.5);
    std::vector<int> biased;

    while (!unrouted.empty()) {
        // ---- Plan: one device-graph path per net, short nets first
        // (the sort_twopins analogue).  Direct BFS while no history
        // has accrued, monotonic (hop-optimal, congestion-aware)
        // afterwards.
        cost.resetPresent();
        std::vector<int> nets = unrouted;
        std::sort(nets.begin(), nets.end(), [&](int a, int b) {
            int da = distOf(a), db = distOf(b);
            return da != db ? da < db : a < b;
        });
        for (int k : nets) {
            int s = phi[op_u[k]], t = phi[op_v[k]];
            std::vector<int> p =
                cost.idle() ? pathDirect(topo, s, t, ws)
                            : pathMonotonic(topo, cost, s, t, ws);
            if (p.empty())
                p = pathMaze(topo, cost, s, t, ws);
            if (p.empty())
                throw std::runtime_error(
                    "route: endpoints unreachable");
            cost.addPath(p);
            plan[k] = std::move(p);
        }

        // ---- Negotiate: charge history on overflowed vertices, rip
        // up the offending routes (worst congestion contribution
        // first) and reroute them through the maze phase; stop when
        // the overlap clears or the round cap hits.
        for (int round = 0; round < kRrrMaxRounds; ++round) {
            if (cost.totalOverflow() == 0)
                break;
            cost.chargeHistory();
            std::vector<std::pair<int, int>> ripped;
            for (int k : nets)
                if (cost.pathOverflowed(plan[k]))
                    ripped.push_back({-cost.pathOveruse(plan[k]), k});
            std::sort(ripped.begin(), ripped.end());
            for (const auto &rk : ripped) {
                int k = rk.second;
                cost.delPath(plan[k]);
                int s = phi[op_u[k]], t = phi[op_v[k]];
                // Reroute hop-optimally: unlike a wire, a SWAP chain
                // pays one SWAP per extra vertex, and an overflowed
                // net can always wait for the next epoch for free —
                // so congestion may pick among shortest paths but
                // never buy a detour.
                std::vector<int> p =
                    pathMonotonic(topo, cost, s, t, ws);
                if (p.empty())
                    p = pathMaze(topo, cost, s, t, ws);
                if (!p.empty())
                    plan[k] = std::move(p);
                cost.addPath(plan[k]);
            }
        }

        // ---- Commit: maximal vertex-disjoint set of chains, closest
        // nets first (`nets` is already in that order: no SWAP ran
        // since the plan).  Each committed net is re-planned with a
        // hop-optimal path that avoids the vertices already owned by
        // this epoch's chains — the negotiated (possibly detoured)
        // plan decides GROUPING and survives only as a fallback, so
        // a committed chain never executes a congestion detour the
        // disjointness mask already resolved.  Among the equal-length
        // candidates, the re-plan is biased toward vertices whose
        // occupant still has a pending op with one of the net's
        // endpoints: walking through them absorbs extra nets (or
        // dresses the SWAP) for free.  The head of the order always
        // fits an empty mask, so every epoch routes at least one net
        // and the loop terminates.
        std::vector<char> taken(topo.numQubits(), 0);
        std::vector<int> committed;
        std::vector<std::vector<int>> chains;
        for (int k : nets) {
            int s = phi[op_u[k]], t = phi[op_v[k]];
            forOpsOn(op_u[k], op_v[k], [&](int k2) {
                if (k2 == k || !isUnrouted[k2])
                    return;
                int other =
                    op_u[k2] == op_u[k] || op_u[k2] == op_v[k]
                        ? op_v[k2]
                        : op_u[k2];
                bias[phi[other]] = 0.0;
                biased.push_back(phi[other]);
            });
            std::vector<int> p =
                pathConstrained(topo, s, t, taken, bias, ws);
            for (int v : biased)
                bias[v] = 0.5;
            biased.clear();
            if (p.empty()) {
                // No hop-optimal path clears the mask; the
                // negotiated plan may still be disjoint.
                bool free = true;
                for (int v : plan[k]) {
                    if (taken[v]) {
                        free = false;
                        break;
                    }
                }
                if (!free)
                    continue;
                p = plan[k];
            }
            for (int v : p)
                taken[v] = 1;
            chains.push_back(std::move(p));
            committed.push_back(k);
        }

        // ---- Execute: both endpoints walk toward the middle of the
        // chain (a length-L path costs L-1 SWAPs), so the two half
        // chains act on disjoint qubits and overlap under the ALAP
        // scheduler.  Which side advances next is chosen by the
        // aggregate progress of the SWAP across ALL unrouted nets
        // (the greedy router's criterion 1, confined to the
        // negotiated corridor), ties preferring a dressable SWAP.  A
        // net whose op goes nearest-neighbour early (detours,
        // absorption side effects) stops its chain right there.
        // Only nets on the two swapped occupants change distance.
        auto swapDelta = [&](int x, int y) {
            long d = 0;
            forOpsOn(inv[x], inv[y], [&](int k) {
                if (!isUnrouted[k])
                    return;
                int du = phi[op_u[k]], dv = phi[op_v[k]];
                int nu = du == x ? y : (du == y ? x : du);
                int nv = dv == x ? y : (dv == y ? x : dv);
                d += topo.dist(nu, nv) - topo.dist(du, dv);
            });
            return d;
        };
        for (size_t c = 0; c < committed.size(); ++c) {
            const int k = committed[c];
            const std::vector<int> &p = chains[c];
            int a = 0, b = static_cast<int>(p.size()) - 1;
            while (isUnrouted[k] && b > a + 1) {
                long da = swapDelta(p[a], p[a + 1]);
                long db = swapDelta(p[b], p[b - 1]);
                bool sideA;
                if (da != db) {
                    sideA = da < db;
                } else {
                    bool ra = dressable(p[a], p[a + 1]) >= 0;
                    bool rb = dressable(p[b], p[b - 1]) >= 0;
                    // Last tie-break balances the two half chains
                    // (they act on disjoint qubits, so equal halves
                    // overlap best under the ALAP scheduler).
                    sideA = ra != rb
                                ? ra
                                : a <= static_cast<int>(p.size()) -
                                           1 - b;
                }
                if (sideA) {
                    applySwap(p[a], p[a + 1]);
                    ++a;
                } else {
                    applySwap(p[b], p[b - 1]);
                    --b;
                }
            }
        }
        unrouted.erase(std::remove_if(unrouted.begin(), unrouted.end(),
                                      [&](int k) { return !isUnrouted[k]; }),
                       unrouted.end());
    }

    res.finalMap = std::move(phi);
    // Translate op positions back to circuit indices (dressedOp was
    // already stored as a circuit index at absorb time).
    for (auto &bucket : res.nnOps)
        for (int &k : bucket)
            k = op_idx[k];
    return res;
}

} // namespace route
} // namespace tqan
