/**
 * @file
 * Properties of the negotiated-congestion ripup-and-reroute router:
 * convergence on adversarial dense interaction graphs (the livelock
 * guard never trips, every route validates), rng-independence of the
 * rrr phase itself, and per-router batch determinism — for every
 * registered router the whole compile grid is bit-identical across
 * pool sizes and submission orders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "core/batch.h"
#include "core/router.h"
#include "core/router_registry.h"
#include "core/sweep.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "qap/placement.h"
#include "qap/qap.h"
#include "route/cost_model.h"
#include "route/rrr.h"
#include "testgen/scenario.h"

using namespace tqan;

namespace {

/** Identity placement: logical i on device qubit i — the adversarial
 * baseline, no mapper cleanup before routing. */
qap::Placement
identityPlacement(int n)
{
    qap::Placement p(n);
    std::iota(p.begin(), p.end(), 0);
    return p;
}

core::RoutingResult
routeWith(const std::string &router, const qcir::Circuit &step,
          const qap::Placement &init, const device::Topology &topo,
          std::uint64_t rngSeed)
{
    std::mt19937_64 rng(rngSeed);
    core::RouteRequest req;
    req.circuit = &step;
    req.initial = &init;
    req.topo = &topo;
    req.rng = &rng;
    req.opt.name = router;
    return core::routerByName(router).route(req);
}

// ---------------------------------------------------------------------
// referenceRrr: a verbatim copy of routeNegotiatedCongestion and its
// path searches as they were before the router kept incremental
// bookkeeping (full rescans of the unrouted nets and routed buckets
// per SWAP, an O(N) allocate-and-fill per search).  The production
// router must reproduce its RoutingResult exactly.

namespace ref {

using core::RouterOptions;
using core::RoutingResult;
using core::SwapStep;
using qap::Placement;
using route::CostModel;
using route::kRrrHistoryWeight;
using route::kRrrMaxRounds;
using route::kRrrPresentWeight;

std::vector<int>
unwind(const std::vector<int> &prev, int s, int t)
{
    std::vector<int> path;
    for (int v = t; v != -1; v = prev[v])
        path.push_back(v);
    std::reverse(path.begin(), path.end());
    if (path.empty() || path.front() != s)
        return {};
    return path;
}

/** Dijkstra on a per-vertex entry cost; when `monotonic`, only edges
 * that strictly decrease the hop distance to t are taken.  An
 * infinite entry cost excludes the vertex.  Deterministic: the
 * priority queue orders by (cost, vertex id). */
template <typename EnterCost>
std::vector<int>
dijkstra(const device::Topology &topo, int s, int t, bool monotonic,
         EnterCost enter)
{
    const int n = topo.numQubits();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> d(n, inf);
    std::vector<int> prev(n, -1);
    std::vector<char> done(n, 0);
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>>
        pq;
    d[s] = 0.0;
    pq.push({0.0, s});
    while (!pq.empty()) {
        auto [dc, u] = pq.top();
        pq.pop();
        if (done[u])
            continue;
        done[u] = 1;
        if (u == t)
            break;
        for (int v : topo.neighbors(u)) {
            if (done[v])
                continue;
            if (monotonic && topo.dist(v, t) != topo.dist(u, t) - 1)
                continue;
            // The target costs nothing to enter: the chain stops
            // short of it (the net's other endpoint lives there).
            double step = v == t ? 0.0 : enter(v);
            if (step == inf)
                continue;
            double nd = dc + step;
            if (nd < d[v] || (nd == d[v] && u < prev[v])) {
                d[v] = nd;
                prev[v] = u;
                pq.push({nd, v});
            }
        }
    }
    if (d[t] == inf)
        return {};
    return unwind(prev, s, t);
}

std::vector<int>
pathDirect(const device::Topology &topo, int s, int t)
{
    const int n = topo.numQubits();
    if (s == t)
        return {s};
    std::vector<int> prev(n, -1);
    std::vector<char> seen(n, 0);
    std::queue<int> q;
    seen[s] = 1;
    q.push(s);
    while (!q.empty()) {
        int u = q.front();
        q.pop();
        if (u == t)
            break;
        for (int v : topo.neighbors(u)) {
            if (seen[v])
                continue;
            seen[v] = 1;
            prev[v] = u;
            q.push(v);
        }
    }
    if (!seen[t])
        return {};
    return unwind(prev, s, t);
}

std::vector<int>
pathMonotonic(const device::Topology &topo, const CostModel &cost,
              int s, int t)
{
    return dijkstra(topo, s, t, true,
                    [&](int v) { return cost.enterCost(v); });
}

std::vector<int>
pathMaze(const device::Topology &topo, const CostModel &cost, int s,
         int t)
{
    return dijkstra(topo, s, t, false,
                    [&](int v) { return cost.enterCost(v); });
}

std::vector<int>
pathConstrained(const device::Topology &topo, int s, int t,
                const std::vector<char> &blocked,
                const std::vector<double> &bias)
{
    const double inf = std::numeric_limits<double>::infinity();
    if (blocked[s] || blocked[t])
        return {};
    return dijkstra(topo, s, t, true, [&](int v) {
        return blocked[v] ? inf : 1.0 + bias[v];
    });
}

RoutingResult
referenceRrr(const qcir::Circuit &circuit,
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

    // Collect the two-qubit ops.
    std::vector<int> op_u, op_v, op_idx;
    for (int i = 0; i < circuit.size(); ++i) {
        const auto &o = circuit.op(i);
        if (o.isTwoQubit()) {
            op_idx.push_back(i);
            op_u.push_back(o.q0);
            op_v.push_back(o.q1);
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

    // Partition into already-NN and unrouted (the nets).
    std::vector<int> unrouted;
    res.nnOps.emplace_back();
    for (int k = 0; k < m; ++k) {
        if (distOf(k) == 1)
            res.nnOps[0].push_back(k);
        else
            unrouted.push_back(k);
    }

    const long max_swaps =
        core::kMaxSwapFactor * std::max(1, m) *
            std::max(2, topo.numQubits()) / 2 +
        64;
    long iter = 0;

    // Same dressed-SWAP merging as the greedy router: an unabsorbed,
    // already-routed Interact op whose logical pair sits on (p, q).
    auto dressable = [&](int p, int q) -> int {
        if (!opt.unifySwaps)
            return -1;
        int la = inv[p], lb = inv[q];
        if (la < 0 || lb < 0)
            return -1;
        for (size_t mi = 0; mi < res.nnOps.size(); ++mi) {
            for (int k : res.nnOps[mi]) {
                if ((op_u[k] == la && op_v[k] == lb) ||
                    (op_u[k] == lb && op_v[k] == la)) {
                    if (circuit.op(op_idx[k]).kind ==
                        qcir::OpKind::Interact)
                        return k;
                }
            }
        }
        return -1;
    };

    // Apply one SWAP on device edge (sp, sq): absorb a mergeable op,
    // move the two occupants, re-bucket newly nearest-neighbour nets.
    auto applySwap = [&](int sp, int sq) {
        if (++iter > max_swaps)
            throw std::runtime_error("route: livelock guard tripped");
        SwapStep step;
        step.p = sp;
        step.q = sq;
        int dressed = dressable(sp, sq);
        if (dressed >= 0) {
            step.dressedOp = op_idx[dressed];
            for (auto &bucket : res.nnOps) {
                auto it = std::find(bucket.begin(), bucket.end(),
                                    dressed);
                if (it != bucket.end()) {
                    bucket.erase(it);
                    break;
                }
            }
        }
        res.swaps.push_back(step);
        qap::applySwap(phi, inv, sp, sq);
        res.nnOps.emplace_back();
        std::vector<int> still;
        for (int k : unrouted) {
            if (distOf(k) == 1)
                res.nnOps.back().push_back(k);
            else
                still.push_back(k);
        }
        unrouted.swap(still);
    };

    // History persists across epochs — contention memory is the
    // negotiation's whole point.
    CostModel cost(topo.numQubits(), kRrrPresentWeight, kRrrHistoryWeight);

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
        std::unordered_map<int, std::vector<int>> plan;
        for (int k : nets) {
            int s = phi[op_u[k]], t = phi[op_v[k]];
            std::vector<int> p =
                cost.idle() ? pathDirect(topo, s, t)
                            : pathMonotonic(topo, cost, s, t);
            if (p.empty())
                p = pathMaze(topo, cost, s, t);
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
            std::vector<int> ripped;
            for (int k : nets)
                if (cost.pathOverflowed(plan[k]))
                    ripped.push_back(k);
            std::sort(ripped.begin(), ripped.end(),
                      [&](int a, int b) {
                          int oa = cost.pathOveruse(plan[a]);
                          int ob = cost.pathOveruse(plan[b]);
                          return oa != ob ? oa > ob : a < b;
                      });
            for (int k : ripped) {
                cost.delPath(plan[k]);
                int s = phi[op_u[k]], t = phi[op_v[k]];
                // Reroute hop-optimally: unlike a wire, a SWAP chain
                // pays one SWAP per extra vertex, and an overflowed
                // net can always wait for the next epoch for free —
                // so congestion may pick among shortest paths but
                // never buy a detour.
                std::vector<int> p = pathMonotonic(topo, cost, s, t);
                if (p.empty())
                    p = pathMaze(topo, cost, s, t);
                if (!p.empty())
                    plan[k] = std::move(p);
                cost.addPath(plan[k]);
            }
        }

        // ---- Commit: maximal vertex-disjoint set of chains, closest
        // nets first.  Each committed net is re-planned with a
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
        std::vector<int> order = nets;
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            int da = distOf(a), db = distOf(b);
            return da != db ? da < db : a < b;
        });
        std::vector<char> taken(topo.numQubits(), 0);
        std::vector<int> committed;
        std::unordered_map<int, std::vector<int>> chain;
        for (int k : order) {
            int s = phi[op_u[k]], t = phi[op_v[k]];
            std::vector<double> bias(topo.numQubits(), 0.5);
            for (int k2 : unrouted) {
                if (k2 == k)
                    continue;
                int other = -1;
                if (op_u[k2] == op_u[k] || op_u[k2] == op_v[k])
                    other = op_v[k2];
                else if (op_v[k2] == op_u[k] || op_v[k2] == op_v[k])
                    other = op_u[k2];
                if (other >= 0)
                    bias[phi[other]] = 0.0;
            }
            std::vector<int> p =
                pathConstrained(topo, s, t, taken, bias);
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
            chain[k] = std::move(p);
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
        auto swapDelta = [&](int x, int y) {
            int la = inv[x], lb = inv[y];
            long d = 0;
            for (int k : unrouted) {
                bool touches = op_u[k] == la || op_v[k] == la ||
                               op_u[k] == lb || op_v[k] == lb;
                if (!touches)
                    continue;
                int du = phi[op_u[k]], dv = phi[op_v[k]];
                int nu = du == x ? y : (du == y ? x : du);
                int nv = dv == x ? y : (dv == y ? x : dv);
                d += topo.dist(nu, nv) - topo.dist(du, dv);
            }
            return d;
        };
        for (int k : committed) {
            const std::vector<int> &p = chain[k];
            int a = 0, b = static_cast<int>(p.size()) - 1;
            auto live = [&]() {
                return std::find(unrouted.begin(), unrouted.end(),
                                 k) != unrouted.end();
            };
            while (live() && b > a + 1) {
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
    }

    res.finalMap = std::move(phi);
    // Translate op positions back to circuit indices (dressedOp was
    // already stored as a circuit index at absorb time).
    for (auto &bucket : res.nnOps)
        for (int &k : bucket)
            k = op_idx[k];
    return res;
}

} // namespace ref

/** Route with the production router and with referenceRrr; both
 * results must agree field by field. */
void
expectMatchesReference(const qcir::Circuit &step,
                       const qap::Placement &init,
                       const device::Topology &topo,
                       const core::RouterOptions &opt = {})
{
    std::mt19937_64 rngRef(1), rngGot(1);
    core::RoutingResult want =
        ref::referenceRrr(step, init, topo, rngRef, opt);
    core::RoutingResult got =
        route::routeNegotiatedCongestion(step, init, topo, rngGot, opt);
    ASSERT_EQ(got.swaps.size(), want.swaps.size());
    for (size_t i = 0; i < want.swaps.size(); ++i) {
        SCOPED_TRACE("swap " + std::to_string(i));
        ASSERT_EQ(got.swaps[i].p, want.swaps[i].p);
        ASSERT_EQ(got.swaps[i].q, want.swaps[i].q);
        ASSERT_EQ(got.swaps[i].dressedOp, want.swaps[i].dressedOp);
    }
    EXPECT_EQ(got.initial, want.initial);
    EXPECT_EQ(got.nnOps, want.nnOps);
    EXPECT_EQ(got.finalMap, want.finalMap);
    EXPECT_TRUE(core::routingIsValid(step, topo, got));
}

int
dressedCount(const core::RoutingResult &r)
{
    int d = 0;
    for (const auto &s : r.swaps)
        d += s.dressedOp >= 0;
    return d;
}

} // namespace

TEST(Rrr, ConvergesOnAdversarialDenseGraphs)
{
    // Dense Erdos-Renyi QAOA layers routed from an identity
    // placement: nearly every pair of logical qubits is a net, so
    // epochs stay contended until the very end.  route() throwing
    // would mean the livelock guard tripped (no convergence).
    std::mt19937_64 gen(77);
    for (int n : {8, 10, 12}) {
        for (double p : {0.6, 0.9}) {
            auto g = graph::erdosRenyi(n, p, gen);
            auto h = ham::qaoaLayerHamiltonian(
                g, ham::qaoaFixedAngles(1)[0]);
            qcir::Circuit step = ham::trotterStep(h, 1.0);
            for (const auto &topo :
                 {device::grid(4, 4), device::sycamore54()}) {
                SCOPED_TRACE(topo.name() + " n=" +
                             std::to_string(n));
                core::RoutingResult r;
                ASSERT_NO_THROW(
                    r = routeWith("rrr", step,
                                  identityPlacement(n), topo, 1));
                EXPECT_TRUE(core::routingIsValid(step, topo, r));
            }
        }
    }
}

TEST(Rrr, ConvergesOnTestgenScenarios)
{
    // Random testgen workloads (random connected topologies, random
    // interaction graphs, adversarial shapes) must all route validly
    // with both registered routers.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        testgen::Scenario s = testgen::randomScenario(seed);
        int n = s.step->numQubits();
        if (n > s.topo.numQubits())
            continue;
        for (const auto &router : core::routerNames()) {
            SCOPED_TRACE(s.name + " router=" + router);
            core::RoutingResult r;
            ASSERT_NO_THROW(r = routeWith(router, *s.step,
                                          identityPlacement(n),
                                          s.topo, seed));
            EXPECT_TRUE(core::routingIsValid(*s.step, s.topo, r));
        }
    }
}

TEST(Rrr, NeverDrawsFromTheRng)
{
    // The rrr phase breaks every tie structurally, so two runs with
    // different rng streams emit identical SWAP lists.
    std::mt19937_64 gen(31);
    auto g = graph::erdosRenyi(10, 0.7, gen);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(4, 4);
    auto a = routeWith("rrr", step, identityPlacement(10), topo, 1);
    auto b =
        routeWith("rrr", step, identityPlacement(10), topo, 999);
    ASSERT_EQ(a.swaps.size(), b.swaps.size());
    for (size_t i = 0; i < a.swaps.size(); ++i) {
        EXPECT_EQ(a.swaps[i].p, b.swaps[i].p);
        EXPECT_EQ(a.swaps[i].q, b.swaps[i].q);
        EXPECT_EQ(a.swaps[i].dressedOp, b.swaps[i].dressedOp);
    }
    EXPECT_EQ(a.initial, b.initial);
    EXPECT_EQ(a.finalMap, b.finalMap);
    EXPECT_EQ(a.nnOps, b.nnOps);
}

namespace {

/** A dense compile grid pinned to one router override. */
core::SweepSpec
denseSpec(const std::string &router)
{
    core::SweepSpec s;
    s.experiment = "routetest";
    s.benchmarks = {core::Benchmark::QaoaDense,
                    core::Benchmark::QaoaReg3};
    s.devices = {{"grid:4x4", ""}, {"sycamore", ""}};
    s.backends = {"2qan"};
    s.sizes = {8, 10};
    s.trials = 2;
    s.router = router;
    return s;
}

std::vector<std::string>
csvRows(const std::vector<core::SweepRow> &rows)
{
    std::vector<std::string> out;
    for (const auto &r : rows)
        out.push_back(core::toCsv(r));
    return out;
}

} // namespace

TEST(Rrr, PerRouterSweepIdenticalForJobs1And8)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::BatchCompiler seq({1});
        core::BatchCompiler par({8});
        auto rows1 = core::runSweep(denseSpec(router), seq);
        auto rows8 = core::runSweep(denseSpec(router), par);
        ASSERT_FALSE(rows1.empty());
        for (const auto &r : rows1)
            EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(csvRows(rows1), csvRows(rows8));
    }
}

TEST(Rrr, PerRouterShuffledSubmissionIdenticalPerJob)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::ExpandedSweep ex =
            core::expandSweep(denseSpec(router));
        core::BatchCompiler bc({4});
        auto ordered = bc.run(ex.jobs);

        std::vector<core::BatchJob> shuffled = ex.jobs;
        std::mt19937_64 rng(5);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        auto permuted = bc.run(shuffled);

        std::map<std::string, const core::BatchJobResult *> byTag;
        for (const auto &r : permuted)
            byTag[r.tag] = &r;
        ASSERT_EQ(byTag.size(), ordered.size());
        for (const auto &ra : ordered) {
            SCOPED_TRACE(ra.tag);
            const auto *rb = byTag.at(ra.tag);
            ASSERT_TRUE(ra.ok()) << ra.error;
            ASSERT_TRUE(rb->ok()) << rb->error;
            EXPECT_EQ(ra.result.sched.deviceCircuit.str(),
                      rb->result.sched.deviceCircuit.str());
            EXPECT_EQ(ra.metrics.swaps, rb->metrics.swaps);
            EXPECT_EQ(ra.metrics.depth2q, rb->metrics.depth2q);
        }
    }
}

TEST(RrrReference, QaoaFillingHeavyHex15)
{
    core::SweepUnit u =
        core::buildSweepUnit(core::Benchmark::QaoaReg3, 574, 0, 0);
    device::Topology topo = device::deviceByName("heavyhex:15");
    qap::Placement init = qap::greedyPlacement(
        qap::interactionGraphOf(*u.step), topo);
    expectMatchesReference(*u.step, init, topo);
}

TEST(RrrReference, SwapsOntoEmptyDeviceQubits)
{
    // 100 logical qubits on 256 device qubits: chains walk through
    // vertices with no occupant.
    core::SweepUnit u =
        core::buildSweepUnit(core::Benchmark::QaoaReg3, 100, 0, 0);
    device::Topology topo = device::deviceByName("grid:16x16");
    qap::Placement init = qap::greedyPlacement(
        qap::interactionGraphOf(*u.step), topo);
    expectMatchesReference(*u.step, init, topo);

    std::mt19937_64 rng(1);
    core::RoutingResult r =
        route::routeNegotiatedCongestion(*u.step, init, topo, rng);
    std::vector<int> inv = qap::invertPlacement(init, topo.numQubits());
    qap::Placement phi = init;
    bool empty = false;
    for (const auto &s : r.swaps) {
        empty = empty || inv[s.p] < 0 || inv[s.q] < 0;
        qap::applySwap(phi, inv, s.p, s.q);
    }
    EXPECT_TRUE(empty) << "no SWAP touched an empty device qubit";
}

TEST(RrrReference, NonUnifiedNnnStep)
{
    // One Interact op per nonzero XX / YY / ZZ term: three routed ops
    // sit on each pair, so which one a SWAP absorbs (the first routed)
    // shows in dressedOp.  Also routed with dressing off.
    core::SweepUnit u =
        core::buildSweepUnit(core::Benchmark::NnnHeisenberg, 150, 0, 0);
    qcir::Circuit step(u.hamiltonian->numQubits());
    for (const ham::PauliTerm &t : u.hamiltonian->pauliTerms()) {
        if (t.v < 0)
            continue;
        step.add(qcir::Op::interact(
            t.u, t.v, t.axis == ham::Axis::X ? t.coeff : 0.0,
            t.axis == ham::Axis::Y ? t.coeff : 0.0,
            t.axis == ham::Axis::Z ? t.coeff : 0.0));
    }
    ASSERT_EQ(step.size(), 3 * static_cast<int>(
                                   u.hamiltonian->pairs().size()));
    device::Topology topo = device::deviceByName("heavyhex:9");
    qap::Placement init =
        qap::greedyPlacement(qap::interactionGraphOf(step), topo);
    expectMatchesReference(step, init, topo);

    std::mt19937_64 rng(1);
    EXPECT_GT(dressedCount(
                  route::routeNegotiatedCongestion(step, init, topo, rng)),
              0);

    core::RouterOptions plain;
    plain.unifySwaps = false;
    expectMatchesReference(step, init, topo, plain);
}

TEST(RrrReference, HeavyHex9FromLinePlacement)
{
    core::SweepUnit u =
        core::buildSweepUnit(core::Benchmark::QaoaReg3, 200, 0, 0);
    device::Topology topo = device::deviceByName("heavyhex:9");
    expectMatchesReference(*u.step,
                           qap::linePlacement(u.n, topo), topo);
}
