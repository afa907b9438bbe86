/**
 * @file
 * Tests for the schedulers (paper Algorithm 2 + NoMap coloring +
 * generic ablation) including unitary-level semantic verification on
 * commuting (Ising/QAOA) workloads.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>

#include "core/compiler.h"
#include "core/router_registry.h"
#include "core/scheduler.h"
#include "device/devices.h"
#include "graph/coloring.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "qap/mapper.h"
#include "qap/placement.h"
#include "qap/tabu.h"
#include "sim/statevector.h"

using namespace tqan;
using namespace tqan::core;

TEST(NoMapScheduler, ChainTakesTwoCycles)
{
    // NN chain: conflict graph is a path -> 2 colors.
    ham::TwoLocalHamiltonian h(6);
    for (int i = 0; i + 1 < 6; ++i)
        h.addPair(i, i + 1, 0, 0, 0.5);
    auto s = scheduleNoMap(ham::trotterStep(h, 1.0));
    EXPECT_EQ(s.twoQubitDepth(), 2);
    EXPECT_EQ(s.deviceCircuit.twoQubitCount(), 5);
    EXPECT_EQ(s.swapCount, 0);
}

TEST(NoMapScheduler, KeepsAllOneQubitOps)
{
    std::mt19937_64 rng(61);
    auto h = ham::nnnIsing(8, rng);
    auto step = ham::trotterStep(h, 1.0);
    auto s = scheduleNoMap(step);
    EXPECT_EQ(s.deviceCircuit.size() - s.deviceCircuit.twoQubitCount(),
              8);
}

namespace {

/**
 * Semantic check for diagonal (commuting) workloads: simulate the
 * scheduled device circuit and the NoMap reference and compare state
 * amplitudes through the final qubit map.
 */
void
expectDiagonalEquivalence(const qcir::Circuit &step,
                          const device::Topology &topo,
                          const ScheduleResult &s)
{
    int n = step.numQubits();
    int nd = topo.numQubits();
    ASSERT_LE(nd, 12);

    // Prepare |+>^n on the logical register, run the flat product of
    // the step ops (order irrelevant: all ZZ commute; 1q fields on
    // distinct qubits commute with everything applied last).
    sim::Statevector ref(n);
    for (int q = 0; q < n; ++q)
        ref.apply1q(q, linalg::hadamard());
    std::vector<qcir::Op> twoq, oneq;
    for (const auto &o : step.ops())
        (o.isTwoQubit() ? twoq : oneq).push_back(o);
    for (const auto &o : twoq)
        ref.applyOp(o);
    for (const auto &o : oneq)
        ref.applyOp(o);

    // Device run: |+> on the initially-mapped qubits.
    sim::Statevector dev(nd);
    for (int q = 0; q < n; ++q)
        dev.apply1q(s.initialMap[q], linalg::hadamard());
    dev.applyCircuit(s.deviceCircuit);

    // Compare amplitudes through the final map.
    auto inv = qap::invertPlacement(s.finalMap, nd);
    for (std::uint64_t d = 0; d < dev.dim(); ++d) {
        // Build the logical basis index; unmapped device qubits must
        // stay |0>.
        std::uint64_t logical = 0;
        bool unmapped_set = false;
        for (int dq = 0; dq < nd; ++dq) {
            if (!((d >> dq) & 1))
                continue;
            if (inv[dq] < 0) {
                unmapped_set = true;
                break;
            }
            logical |= std::uint64_t(1) << inv[dq];
        }
        auto da = dev.amplitude(d);
        if (unmapped_set) {
            EXPECT_NEAR(std::abs(da), 0.0, 1e-9);
        } else {
            EXPECT_NEAR(std::abs(da - ref.amplitude(logical)), 0.0,
                        1e-9);
        }
    }
}

} // namespace

TEST(HybridScheduler, DiagonalSemanticEquivalence)
{
    std::mt19937_64 rng(62);
    for (int seed = 0; seed < 5; ++seed) {
        auto h = ham::nnnIsing(6, rng);
        device::Topology topo = device::grid(2, 3);
        qcir::Circuit step = ham::trotterStep(h, 1.0);

        auto flow = qap::flowMatrix(h);
        auto place = qap::tabuSearchQap(flow, topo, rng);
        auto routing = routePermutationAware(step, place, topo, rng);
        auto s = scheduleHybridAlap(step, topo, routing);

        EXPECT_TRUE(scheduleIsValid(step, topo, s));
        expectDiagonalEquivalence(step, topo, s);
    }
}

TEST(GenericScheduler, DiagonalSemanticEquivalence)
{
    std::mt19937_64 rng(63);
    auto h = ham::nnnIsing(6, rng);
    device::Topology topo = device::grid(2, 3);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    auto flow = qap::flowMatrix(h);
    auto place = qap::tabuSearchQap(flow, topo, rng);
    auto routing = routePermutationAware(step, place, topo, rng);
    auto s = scheduleGenericAlap(step, topo, routing);
    EXPECT_TRUE(scheduleIsValid(step, topo, s));
    expectDiagonalEquivalence(step, topo, s);
}

/** Property sweep over models, devices, seeds. */
class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SchedulerProperty, HybridValidAndNoDeeperThanGeneric)
{
    auto [model, dev, seed] = GetParam();
    std::mt19937_64 rng(seed * 1013 + 7);
    int n = 10;
    ham::TwoLocalHamiltonian h =
        model == 0   ? ham::nnnIsing(n, rng)
        : model == 1 ? ham::nnnXY(n, rng)
                     : ham::nnnHeisenberg(n, rng);
    device::Topology topo = dev == 0 ? device::grid(3, 4)
                                     : device::montreal27();
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    auto flow = qap::flowMatrix(h);
    auto place = qap::tabuSearchQap(flow, topo, rng);
    auto routing = routePermutationAware(step, place, topo, rng);

    auto hybrid = scheduleHybridAlap(step, topo, routing);
    auto generic = scheduleGenericAlap(step, topo, routing);

    EXPECT_TRUE(scheduleIsValid(step, topo, hybrid));
    EXPECT_TRUE(scheduleIsValid(step, topo, generic));
    // The hybrid scheduler exploits strictly more freedom; allow a
    // tiny slack for greedy-order artifacts.
    EXPECT_LE(hybrid.twoQubitDepth(), generic.twoQubitDepth() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 2),
                       ::testing::Range(0, 5)));

namespace {

/** The scan-every-op hybrid scheduler (paper Algorithm 2 as first
 * written), verbatim: each cycle visits every unscheduled op and
 * clears every busy flag.  O(cycles x ops); the frozen reference the
 * ready-set scheduler must reproduce op for op. */
ScheduleResult
referenceHybridAlap(const qcir::Circuit &circuit,
                    const device::Topology &topo,
                    const RoutingResult &routing)
{
    using qcir::Op;
    int nswaps = static_cast<int>(routing.swaps.size());
    int cur = nswaps;
    std::vector<int> ops, assigned;
    for (size_t mi = 0; mi < routing.nnOps.size(); ++mi)
        for (int oi : routing.nnOps[mi]) {
            ops.push_back(oi);
            assigned.push_back(static_cast<int>(mi));
        }
    std::vector<char> done(ops.size(), 0);
    std::vector<int> cnt_by_map(routing.nnOps.size(), 0);
    for (int a : assigned)
        ++cnt_by_map[a];
    long suffix = cnt_by_map[cur];
    std::vector<std::vector<Op>> rev_cycles;
    qap::Placement mp = routing.finalMap;
    std::vector<int> inv = qap::invertPlacement(mp, topo.numQubits());
    size_t remaining = ops.size();
    std::vector<char> busy(topo.numQubits(), 0);
    while (remaining > 0 || cur > 0) {
        std::fill(busy.begin(), busy.end(), 0);
        rev_cycles.emplace_back();
        bool progress = false;
        for (size_t i = 0; i < ops.size(); ++i) {
            if (done[i])
                continue;
            const Op &o = circuit.op(ops[i]);
            int du = mp[o.q0], dv = mp[o.q1];
            if (!topo.connected(du, dv) || busy[du] || busy[dv])
                continue;
            Op r = o;
            r.q0 = du;
            r.q1 = dv;
            rev_cycles.back().push_back(r);
            busy[du] = busy[dv] = 1;
            done[i] = 1;
            --remaining;
            --cnt_by_map[assigned[i]];
            if (assigned[i] >= cur)
                --suffix;
            progress = true;
        }
        while (cur > 0 && suffix == 0) {
            const SwapStep &s = routing.swaps[cur - 1];
            if (busy[s.p] || busy[s.q])
                break;
            Op sop;
            if (s.dressedOp >= 0) {
                const Op &payload = circuit.op(s.dressedOp);
                sop = Op::dressedSwap(s.p, s.q, payload.axx,
                                      payload.ayy, payload.azz);
            } else {
                sop = Op::swap(s.p, s.q);
            }
            rev_cycles.back().push_back(sop);
            busy[s.p] = busy[s.q] = 1;
            qap::applySwap(mp, inv, s.p, s.q);
            --cur;
            suffix += cnt_by_map[cur];
            progress = true;
        }
        if (!progress)
            throw std::runtime_error("referenceHybridAlap: no progress");
    }
    ScheduleResult res;
    res.deviceCircuit = qcir::Circuit(topo.numQubits());
    res.initialMap = routing.initial;
    res.finalMap = routing.finalMap;
    res.swapCount = nswaps;
    res.dressedCount = routing.dressedCount();
    for (auto it = rev_cycles.rbegin(); it != rev_cycles.rend(); ++it) {
        if (it->empty())
            continue;
        res.cycles.emplace_back();
        for (const auto &op : *it) {
            res.deviceCircuit.add(op);
            res.cycles.back().push_back(res.deviceCircuit.size() - 1);
        }
    }
    for (const auto &o : circuit.ops())
        if (!o.isTwoQubit()) {
            Op r = o;
            r.q0 = res.finalMap[o.q0];
            res.deviceCircuit.add(r);
        }
    return res;
}

/** The pairwise NoMap scheduler: every pair of two-qubit ops is
 * tested for a shared qubit, and the coloring marks colors in a
 * buffer of n + 1 per node.  The reference the per-qubit build must
 * reproduce. */
ScheduleResult
referenceNoMap(const qcir::Circuit &circuit)
{
    std::vector<int> twoq;
    for (int i = 0; i < circuit.size(); ++i)
        if (circuit.op(i).isTwoQubit())
            twoq.push_back(i);
    int m = static_cast<int>(twoq.size());
    graph::Graph conflict(m);
    for (int a = 0; a < m; ++a)
        for (int b = a + 1; b < m; ++b) {
            const auto &oa = circuit.op(twoq[a]);
            const auto &ob = circuit.op(twoq[b]);
            if (oa.touches(ob.q0) || oa.touches(ob.q1))
                conflict.addEdge(a, b);
        }
    std::vector<int> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return conflict.degree(a) > conflict.degree(b);
    });
    std::vector<int> color(m, -1);
    for (int v : order) {
        std::vector<char> used(m + 1, 0);
        for (int w : conflict.neighbors(v))
            if (color[w] >= 0)
                used[color[w]] = 1;
        int c = 0;
        while (used[c])
            ++c;
        color[v] = c;
    }
    ScheduleResult res;
    res.deviceCircuit = qcir::Circuit(circuit.numQubits());
    res.initialMap = qap::identityPlacement(circuit.numQubits());
    res.finalMap = res.initialMap;
    res.cycles.resize(graph::numColors(color));
    for (size_t c = 0; c < res.cycles.size(); ++c)
        for (int a = 0; a < m; ++a)
            if (color[a] == static_cast<int>(c)) {
                res.deviceCircuit.add(circuit.op(twoq[a]));
                res.cycles[c].push_back(res.deviceCircuit.size() - 1);
            }
    for (const auto &o : circuit.ops())
        if (!o.isTwoQubit())
            res.deviceCircuit.add(o);
    return res;
}

void
expectSameSchedule(const ScheduleResult &want, const ScheduleResult &got,
                   const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.initialMap, want.initialMap) << what;
    EXPECT_EQ(got.finalMap, want.finalMap) << what;
    EXPECT_EQ(got.swapCount, want.swapCount) << what;
    EXPECT_EQ(got.dressedCount, want.dressedCount) << what;
    ASSERT_EQ(got.deviceCircuit.size(), want.deviceCircuit.size())
        << what;
    for (int i = 0; i < want.deviceCircuit.size(); ++i) {
        const qcir::Op &a = want.deviceCircuit.op(i);
        const qcir::Op &b = got.deviceCircuit.op(i);
        ASSERT_TRUE(a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
                    a.axx == b.axx && a.ayy == b.ayy && a.azz == b.azz &&
                    a.theta == b.theta)
            << what << ": op " << i << " differs";
    }
}

/** One QAOA-REG-3 step on n qubits. */
qcir::Circuit
qaoaStep(int n, std::mt19937_64 &rng)
{
    auto g = graph::randomRegularGraph(n, 3, rng);
    return ham::trotterStep(
        ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]), 1.0);
}

RoutingResult
routeWith(const std::string &router, const qcir::Circuit &step,
          const qap::Placement &place, const device::Topology &topo,
          std::mt19937_64 &rng)
{
    RouteRequest req;
    req.circuit = &step;
    req.initial = &place;
    req.topo = &topo;
    req.rng = &rng;
    req.opt.name = router;
    return routerByName(router).route(req);
}

} // namespace

TEST(HybridScheduler, ReadySetMatchesTheScanEveryOpReference)
{
    // Device-scale routings with thousands of SWAPs: the ready-set
    // scheduler must emit the reference's cycles op for op.
    std::mt19937_64 rng(2024);
    device::Topology hh = device::deviceByName("heavyhex:9");
    qcir::Circuit qaoa = qaoaStep(208, rng);
    qap::TabuOptions shortTabu;
    shortTabu.maxIters = 100;
    qap::Placement tabu = qap::bestOfTabu(qap::flowMatrixOf(qaoa), hh,
                                          5, 1, shortTabu);

    qap::MapperRequest lineReq;
    lineReq.circuit = &qaoa;
    lineReq.topo = &hh;
    lineReq.dist = &hh.hopDistances();
    qap::Placement line = qap::mapperByName("line").map(lineReq);

    device::Topology grid = device::deviceByName("grid:10x10");
    qcir::Circuit nnn = ham::trotterStep(ham::nnnHeisenberg(100, rng),
                                         1.0);
    qap::Placement gridPlace = qap::bestOfTabu(
        qap::flowMatrixOf(nnn), grid, 6, 1, shortTabu);

    struct Case
    {
        const char *what;
        const qcir::Circuit &step;
        const qap::Placement &place;
        const device::Topology &topo;
        const char *router;
    };
    const Case cases[] = {
        {"heavyhex:9 qaoa greedy", qaoa, tabu, hh, "greedy"},
        {"heavyhex:9 qaoa line greedy", qaoa, line, hh, "greedy"},
        {"grid:10x10 nnn rrr", nnn, gridPlace, grid, "rrr"},
    };
    for (const Case &c : cases) {
        std::mt19937_64 routeRng(77);
        RoutingResult routing =
            routeWith(c.router, c.step, c.place, c.topo, routeRng);
        ASSERT_GT(routing.swapCount(), 0) << c.what;
        ScheduleResult got = scheduleHybridAlap(c.step, c.topo, routing);
        expectSameSchedule(referenceHybridAlap(c.step, c.topo, routing),
                           got, c.what);
        EXPECT_TRUE(scheduleIsValid(c.step, c.topo, got)) << c.what;
    }
}

TEST(NoMapScheduler, PerQubitBuildMatchesThePairwiseReference)
{
    std::mt19937_64 rng(2025);
    qcir::Circuit qaoa = qaoaStep(200, rng);
    expectSameSchedule(referenceNoMap(qaoa), scheduleNoMap(qaoa),
                       "qaoa200");
    // Repeated pairs: two ops on the same qubits conflict once.
    qcir::Circuit nnn = ham::trotterStep(ham::nnnHeisenberg(40, rng),
                                         1.0);
    qcir::Circuit doubled = nnn;
    doubled.append(nnn);
    expectSameSchedule(referenceNoMap(doubled), scheduleNoMap(doubled),
                       "nnn40 twice");
}
