#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "graph/coloring.h"
#include "qap/placement.h"

namespace tqan {
namespace core {

using qap::Placement;
using qcir::Circuit;
using qcir::Op;
using qcir::OpKind;

namespace {

/** Remap a two-qubit circuit op onto device qubits. */
Op
onDevice(const Op &o, int dq0, int dq1)
{
    Op r = o;
    r.q0 = dq0;
    r.q1 = dq1;
    return r;
}

/** Append single-qubit ops under a fixed map and finalize cycles. */
void
appendOneQubitOps(const Circuit &circuit, const Placement &map,
                  ScheduleResult &res)
{
    for (const auto &o : circuit.ops()) {
        if (o.isTwoQubit())
            continue;
        Op r = o;
        r.q0 = map[o.q0];
        res.deviceCircuit.add(r);
    }
}

} // namespace

ScheduleResult
scheduleNoMap(const Circuit &circuit)
{
    int n = circuit.numQubits();
    // Conflict graph over two-qubit ops, one edge per pair sharing a
    // qubit, built from per-qubit op lists: O(sum of list sizes
    // squared) instead of testing every pair.  Two ops on the same
    // pair of qubits meet in both lists; the edge is added at the
    // smaller qubit.
    std::vector<int> twoq;
    for (int i = 0; i < circuit.size(); ++i)
        if (circuit.op(i).isTwoQubit())
            twoq.push_back(i);
    std::vector<std::vector<int>> on_qubit(n);
    for (size_t a = 0; a < twoq.size(); ++a) {
        const Op &o = circuit.op(twoq[a]);
        on_qubit[o.q0].push_back(static_cast<int>(a));
        if (o.q1 != o.q0)
            on_qubit[o.q1].push_back(static_cast<int>(a));
    }
    graph::Graph conflict(static_cast<int>(twoq.size()));
    for (int q = 0; q < n; ++q) {
        const std::vector<int> &list = on_qubit[q];
        for (size_t x = 0; x < list.size(); ++x) {
            const Op &oa = circuit.op(twoq[list[x]]);
            int other = oa.q0 == q ? oa.q1 : oa.q0;
            for (size_t y = x + 1; y < list.size(); ++y) {
                if (other < q && circuit.op(twoq[list[y]]).touches(other))
                    continue;
                conflict.addEdge(list[x], list[y]);
            }
        }
    }
    auto color = graph::greedyColoring(conflict);
    int ncolors = graph::numColors(color);

    ScheduleResult res;
    res.deviceCircuit = Circuit(n);
    res.initialMap = qap::identityPlacement(n);
    res.finalMap = res.initialMap;
    // Color-major, ascending op order within a color.
    res.cycles.resize(std::max(0, ncolors));
    for (size_t a = 0; a < twoq.size(); ++a)
        res.cycles[color[a]].push_back(static_cast<int>(a));
    for (auto &cycle : res.cycles)
        for (int &a : cycle) {
            res.deviceCircuit.add(circuit.op(twoq[a]));
            a = res.deviceCircuit.size() - 1;
        }
    appendOneQubitOps(circuit, res.initialMap, res);
    return res;
}

ScheduleResult
scheduleHybridAlap(const Circuit &circuit,
                   const device::Topology &topo,
                   const RoutingResult &routing)
{
    int nswaps = static_cast<int>(routing.swaps.size());
    int cur = nswaps;  // index of the current (reverse-time) map

    // Unscheduled two-qubit circuit ops and their assigned map index.
    std::vector<int> ops;           // circuit op indices
    std::vector<int> assigned;      // parallel: map index
    for (size_t mi = 0; mi < routing.nnOps.size(); ++mi) {
        for (int oi : routing.nnOps[mi]) {
            ops.push_back(oi);
            assigned.push_back(static_cast<int>(mi));
        }
    }
    const int nops = static_cast<int>(ops.size());

    // cntByMap[mi] = unscheduled ops assigned to map mi; suffix =
    // number assigned to maps >= cur (blocks undoing swap cur-1).
    std::vector<int> cnt_by_map(routing.nnOps.size(), 0);
    for (int a : assigned)
        ++cnt_by_map[a];
    long suffix = cnt_by_map[cur];

    // The current map, walked back from the final one by un-applying
    // each SWAP as it is scheduled.
    Placement mp = routing.finalMap;
    std::vector<int> inv = qap::invertPlacement(mp, topo.numQubits());

    // The ready set: unscheduled ops that are NN under the current
    // map, ascending -- exactly the ops the paper's per-cycle scan
    // over every op would accept but for busy qubits.  nn[i] is op
    // i's NN test under the current map; an op sits in `ready` (with
    // in_ready set) from when it becomes NN until it is scheduled or
    // found stale.  Only an un-applied SWAP moves logical qubits, so
    // only the unscheduled ops on its two qubits (by_qubit) are
    // re-tested; newly NN ops wait in `fresh` and are merged in
    // before the next cycle's scan.
    std::vector<char> nn(nops, 0), in_ready(nops, 0), done(nops, 0);
    std::vector<std::vector<int>> by_qubit(mp.size());
    std::vector<int> ready, kept, fresh;
    for (int i = 0; i < nops; ++i) {
        const Op &o = circuit.op(ops[i]);
        by_qubit[o.q0].push_back(i);
        by_qubit[o.q1].push_back(i);
        if (topo.connected(mp[o.q0], mp[o.q1])) {
            nn[i] = in_ready[i] = 1;
            ready.push_back(i);
        }
    }
    auto retestOpsOn = [&](int lq) {
        // Drops scheduled ops from the list on the way.
        std::vector<int> &list = by_qubit[lq];
        for (size_t k = 0; k < list.size();) {
            int i = list[k];
            if (done[i]) {
                list[k] = list.back();
                list.pop_back();
                continue;
            }
            const Op &o = circuit.op(ops[i]);
            nn[i] = topo.connected(mp[o.q0], mp[o.q1]);
            if (nn[i] && !in_ready[i]) {
                in_ready[i] = 1;
                fresh.push_back(i);
            }
            ++k;
        }
    };

    // Reverse-time cycles, flat: cycle c is rev_ops[rev_start[c] ..
    // rev_start[c + 1]) (device-qubit ops).
    std::vector<Op> rev_ops;
    std::vector<size_t> rev_start;

    size_t remaining = ops.size();
    std::vector<char> busy(topo.numQubits(), 0);
    while (remaining > 0 || cur > 0) {
        // Free the qubits of the previous cycle: busy is set only there.
        if (!rev_start.empty())
            for (size_t k = rev_start.back(); k < rev_ops.size(); ++k)
                busy[rev_ops[k].q0] = busy[rev_ops[k].q1] = 0;
        rev_start.push_back(rev_ops.size());
        bool progress = false;

        // Lines 6-8: circuit gates NN under the current map with free
        // qubits (any map works -- permutation freedom), in op order.
        kept.clear();
        for (int i : ready) {
            if (!nn[i]) {
                in_ready[i] = 0;  // stale: a SWAP moved it out of reach
                continue;
            }
            const Op &o = circuit.op(ops[i]);
            int du = mp[o.q0], dv = mp[o.q1];
            if (busy[du] || busy[dv]) {
                kept.push_back(i);
                continue;
            }
            rev_ops.push_back(onDevice(o, du, dv));
            busy[du] = busy[dv] = 1;
            done[i] = 1;
            in_ready[i] = 0;
            --remaining;
            --cnt_by_map[assigned[i]];
            if (assigned[i] >= cur)
                --suffix;
            progress = true;
        }

        // Lines 9-12: un-apply SWAPs (reverse insertion order) whose
        // dependent gates are all scheduled and whose qubits are free.
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
            rev_ops.push_back(sop);
            busy[s.p] = busy[s.q] = 1;
            qap::applySwap(mp, inv, s.p, s.q);
            for (int lq : {inv[s.p], inv[s.q]})
                if (lq >= 0)
                    retestOpsOn(lq);
            --cur;
            suffix += cnt_by_map[cur];
            progress = true;
        }

        // Progress is guaranteed: while suffix > 0 an op assigned to
        // the current map is NN and schedulable in a fresh cycle, and
        // once suffix == 0 the next SWAP can be un-applied.
        if (!progress)
            throw std::runtime_error("scheduleHybridAlap: no progress");

        std::sort(fresh.begin(), fresh.end());
        ready.resize(kept.size() + fresh.size());
        std::merge(kept.begin(), kept.end(), fresh.begin(), fresh.end(),
                   ready.begin());
        fresh.clear();
    }
    rev_start.push_back(rev_ops.size());

    // Line 15: reverse into forward time and materialize.
    ScheduleResult res;
    res.deviceCircuit = Circuit(topo.numQubits());
    res.initialMap = routing.initial;
    res.finalMap = routing.finalMap;
    res.swapCount = nswaps;
    res.dressedCount = routing.dressedCount();
    for (size_t c = rev_start.size() - 1; c-- > 0;) {
        if (rev_start[c] == rev_start[c + 1])
            continue;
        res.cycles.emplace_back();
        for (size_t k = rev_start[c]; k < rev_start[c + 1]; ++k) {
            res.deviceCircuit.add(rev_ops[k]);
            res.cycles.back().push_back(res.deviceCircuit.size() - 1);
        }
    }
    appendOneQubitOps(circuit, res.finalMap, res);
    return res;
}

ScheduleResult
scheduleGenericAlap(const Circuit &circuit,
                    const device::Topology &topo,
                    const RoutingResult &routing)
{
    // Respect the routing order: bucket i's gates execute under map
    // i (replayed forward from the initial one), then swap i.  Gates
    // are list-scheduled against per-qubit busy levels (conventional
    // dependency scheduling).
    ScheduleResult res;
    res.deviceCircuit = Circuit(topo.numQubits());
    res.initialMap = routing.initial;
    res.finalMap = routing.finalMap;
    res.swapCount = static_cast<int>(routing.swaps.size());
    res.dressedCount = routing.dressedCount();

    std::vector<int> level(topo.numQubits(), 0);
    std::vector<std::pair<int, Op>> timed;  // (cycle, device op)

    auto place = [&](const Op &o, int du, int dv) {
        int t = std::max(level[du], level[dv]) + 1;
        level[du] = level[dv] = t;
        timed.push_back({t, onDevice(o, du, dv)});
    };

    Placement mp = routing.initial;
    std::vector<int> inv = qap::invertPlacement(mp, topo.numQubits());
    for (size_t mi = 0; mi < routing.nnOps.size(); ++mi) {
        for (int oi : routing.nnOps[mi]) {
            const Op &o = circuit.op(oi);
            place(o, mp[o.q0], mp[o.q1]);
        }
        if (mi < routing.swaps.size()) {
            const SwapStep &s = routing.swaps[mi];
            Op sop;
            if (s.dressedOp >= 0) {
                const Op &payload = circuit.op(s.dressedOp);
                sop = Op::dressedSwap(s.p, s.q, payload.axx,
                                      payload.ayy, payload.azz);
            } else {
                sop = Op::swap(s.p, s.q);
            }
            int t = std::max(level[s.p], level[s.q]) + 1;
            level[s.p] = level[s.q] = t;
            timed.push_back({t, sop});
            qap::applySwap(mp, inv, s.p, s.q);
        }
    }

    int maxt = 0;
    for (const auto &[t, o] : timed)
        maxt = std::max(maxt, t);
    res.cycles.resize(maxt);
    std::stable_sort(timed.begin(), timed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &[t, o] : timed) {
        res.deviceCircuit.add(o);
        res.cycles[t - 1].push_back(res.deviceCircuit.size() - 1);
    }
    appendOneQubitOps(circuit, res.finalMap, res);
    return res;
}

bool
scheduleIsValid(const Circuit &circuit, const device::Topology &topo,
                const ScheduleResult &s)
{
    // Pending multiset of Interact terms keyed by logical pair.
    struct Term
    {
        double xx, yy, zz;
    };
    std::multimap<std::pair<int, int>, Term> pending;
    int n_onequbit = 0;
    for (const auto &o : circuit.ops()) {
        if (o.kind == OpKind::Interact) {
            pending.insert({{std::min(o.q0, o.q1),
                             std::max(o.q0, o.q1)},
                            {o.axx, o.ayy, o.azz}});
        } else if (o.isTwoQubit()) {
            return false;  // validator supports Interact-only inputs
        } else {
            ++n_onequbit;
        }
    }

    auto inv = qap::invertPlacement(s.initialMap, topo.numQubits());
    auto take = [&pending](int lu, int lv, const Op &o) {
        auto key = std::make_pair(std::min(lu, lv), std::max(lu, lv));
        auto [lo, hi] = pending.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            if (std::abs(it->second.xx - o.axx) < 1e-9 &&
                std::abs(it->second.yy - o.ayy) < 1e-9 &&
                std::abs(it->second.zz - o.azz) < 1e-9) {
                pending.erase(it);
                return true;
            }
        }
        return false;
    };

    int seen_onequbit = 0;
    for (const auto &o : s.deviceCircuit.ops()) {
        if (!o.isTwoQubit()) {
            ++seen_onequbit;
            continue;
        }
        if (!topo.connected(o.q0, o.q1))
            return false;
        int lu = inv[o.q0], lv = inv[o.q1];
        switch (o.kind) {
          case OpKind::Interact:
            if (lu < 0 || lv < 0 || !take(lu, lv, o))
                return false;
            break;
          case OpKind::DressedSwap:
            if (lu < 0 || lv < 0 || !take(lu, lv, o))
                return false;
            std::swap(inv[o.q0], inv[o.q1]);
            break;
          case OpKind::Swap:
            std::swap(inv[o.q0], inv[o.q1]);
            break;
          default:
            return false;
        }
    }
    if (!pending.empty() || seen_onequbit != n_onequbit)
        return false;

    // Final map consistency.
    for (size_t lq = 0; lq < s.finalMap.size(); ++lq)
        if (inv[s.finalMap[lq]] != static_cast<int>(lq))
            return false;
    return true;
}

} // namespace core
} // namespace tqan
