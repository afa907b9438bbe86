#include "baseline/dag_router.h"

#include <cmath>
#include <map>

namespace tqan {
namespace baseline {

qcir::Circuit
twoQubitSubcircuit(const qcir::Circuit &c)
{
    qcir::Circuit r(c.numQubits());
    for (const auto &o : c.ops())
        if (o.isTwoQubit())
            r.add(o);
    return r;
}

OneQubitInterleaver::OneQubitInterleaver(const qcir::Circuit &c)
{
    // pending[q]: 1q ops on qubit q since its last 2q op.
    std::vector<std::vector<qcir::Op>> pending(c.numQubits());
    for (const auto &o : c.ops()) {
        if (!o.isTwoQubit()) {
            pending[o.q0].push_back(o);
            continue;
        }
        before_.emplace_back();
        auto &b = before_.back();
        for (int q : {o.q0, o.q1}) {
            b.insert(b.end(), pending[q].begin(), pending[q].end());
            pending[q].clear();
        }
    }
    for (const auto &p : pending)
        tail_.insert(tail_.end(), p.begin(), p.end());
}

void
OneQubitInterleaver::emitBefore(int j, const qap::Placement &phi,
                                BaselineResult &res) const
{
    for (qcir::Op o : before_[j]) {
        o.q0 = phi[o.q0];
        res.deviceCircuit.add(o);
    }
}

void
OneQubitInterleaver::emitTail(const qap::Placement &phi,
                              BaselineResult &res) const
{
    for (qcir::Op o : tail_) {
        o.q0 = phi[o.q0];
        res.deviceCircuit.add(o);
    }
}

bool
baselineIsValid(const qcir::Circuit &input,
                const device::Topology &topo, const BaselineResult &r)
{
    struct Term
    {
        double xx, yy, zz;
    };
    std::multimap<std::pair<int, int>, Term> pending;
    for (const auto &o : input.ops()) {
        if (o.kind == qcir::OpKind::Interact) {
            pending.insert({{std::min(o.q0, o.q1),
                             std::max(o.q0, o.q1)},
                            {o.axx, o.ayy, o.azz}});
        }
    }

    auto inv = qap::invertPlacement(r.initialMap, topo.numQubits());
    for (const auto &o : r.deviceCircuit.ops()) {
        if (!o.isTwoQubit())
            continue;
        if (!topo.connected(o.q0, o.q1))
            return false;
        if (o.kind == qcir::OpKind::Swap) {
            std::swap(inv[o.q0], inv[o.q1]);
            continue;
        }
        if (o.kind != qcir::OpKind::Interact)
            return false;
        int lu = inv[o.q0], lv = inv[o.q1];
        if (lu < 0 || lv < 0)
            return false;
        auto key = std::make_pair(std::min(lu, lv), std::max(lu, lv));
        auto [lo, hi] = pending.equal_range(key);
        bool found = false;
        for (auto it = lo; it != hi; ++it) {
            if (std::abs(it->second.xx - o.axx) < 1e-9 &&
                std::abs(it->second.yy - o.ayy) < 1e-9 &&
                std::abs(it->second.zz - o.azz) < 1e-9) {
                pending.erase(it);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    if (!pending.empty())
        return false;

    for (size_t lq = 0; lq < r.finalMap.size(); ++lq)
        if (inv[r.finalMap[lq]] != static_cast<int>(lq))
            return false;
    return true;
}

} // namespace baseline
} // namespace tqan
