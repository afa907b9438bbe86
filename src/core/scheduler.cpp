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
    // Conflict graph over two-qubit ops.
    std::vector<int> twoq;
    for (int i = 0; i < circuit.size(); ++i)
        if (circuit.op(i).isTwoQubit())
            twoq.push_back(i);
    graph::Graph conflict(static_cast<int>(twoq.size()));
    for (size_t a = 0; a < twoq.size(); ++a) {
        for (size_t b = a + 1; b < twoq.size(); ++b) {
            const auto &oa = circuit.op(twoq[a]);
            const auto &ob = circuit.op(twoq[b]);
            if (oa.touches(ob.q0) || oa.touches(ob.q1))
                conflict.addEdge(static_cast<int>(a),
                                 static_cast<int>(b));
        }
    }
    auto color = graph::greedyColoring(conflict);
    int ncolors = graph::numColors(color);

    ScheduleResult res;
    res.deviceCircuit = Circuit(n);
    res.initialMap = qap::identityPlacement(n);
    res.finalMap = res.initialMap;
    res.cycles.resize(std::max(0, ncolors));
    for (int c = 0; c < ncolors; ++c) {
        for (size_t a = 0; a < twoq.size(); ++a) {
            if (color[a] == c) {
                res.deviceCircuit.add(circuit.op(twoq[a]));
                res.cycles[c].push_back(res.deviceCircuit.size() - 1);
            }
        }
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
    std::vector<char> done(ops.size(), 0);

    // cntByMap[mi] = unscheduled ops assigned to map mi; suffix =
    // number assigned to maps >= cur (blocks undoing swap cur-1).
    std::vector<int> cnt_by_map(routing.nnOps.size(), 0);
    for (int a : assigned)
        ++cnt_by_map[a];
    long suffix = cnt_by_map[cur];

    struct RevOp
    {
        Op op;       // device-qubit op
    };
    std::vector<std::vector<RevOp>> rev_cycles;

    // The current map, walked back from the final one by un-applying
    // each SWAP as it is scheduled.
    Placement mp = routing.finalMap;
    std::vector<int> inv = qap::invertPlacement(mp, topo.numQubits());

    size_t remaining = ops.size();
    std::vector<char> busy(topo.numQubits(), 0);
    while (remaining > 0 || cur > 0) {
        std::fill(busy.begin(), busy.end(), 0);
        rev_cycles.emplace_back();
        bool progress = false;

        // Lines 6-8: circuit gates NN under the current map with free
        // qubits (any map works -- permutation freedom).
        for (size_t i = 0; i < ops.size(); ++i) {
            if (done[i])
                continue;
            const Op &o = circuit.op(ops[i]);
            int du = mp[o.q0], dv = mp[o.q1];
            if (!topo.connected(du, dv) || busy[du] || busy[dv])
                continue;
            rev_cycles.back().push_back({onDevice(o, du, dv)});
            busy[du] = busy[dv] = 1;
            done[i] = 1;
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
            rev_cycles.back().push_back({sop});
            busy[s.p] = busy[s.q] = 1;
            qap::applySwap(mp, inv, s.p, s.q);
            --cur;
            suffix += cnt_by_map[cur];
            progress = true;
        }

        // Progress is guaranteed: while suffix > 0 an op assigned to
        // the current map is NN and schedulable in a fresh cycle, and
        // once suffix == 0 the next SWAP can be un-applied.
        if (!progress)
            throw std::runtime_error("scheduleHybridAlap: no progress");
    }

    // Line 15: reverse into forward time and materialize.
    ScheduleResult res;
    res.deviceCircuit = Circuit(topo.numQubits());
    res.initialMap = routing.initial;
    res.finalMap = routing.finalMap;
    res.swapCount = nswaps;
    res.dressedCount = routing.dressedCount();
    for (auto it = rev_cycles.rbegin(); it != rev_cycles.rend();
         ++it) {
        if (it->empty())
            continue;
        res.cycles.emplace_back();
        for (const auto &ro : *it) {
            res.deviceCircuit.add(ro.op);
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
