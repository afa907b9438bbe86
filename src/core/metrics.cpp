#include "core/metrics.h"

#include "decomp/pass.h"

namespace tqan {
namespace core {

namespace {

void
fillMapped(CompilationMetrics &m, const qcir::Circuit &mapped,
           device::GateSet gs)
{
    decomp::ExpandedCounts e = decomp::countExpanded(mapped, gs);
    m.native2q = e.twoQubit;
    m.depth2q = e.twoQubitDepth;
    m.depthAll = e.depth;
}

void
fillNoMap(CompilationMetrics &m, const qcir::Circuit &step,
          device::GateSet gs)
{
    qcir::Circuit unified = qcir::unifySamePairInteractions(step);
    ScheduleResult nomap = scheduleNoMap(unified);
    decomp::ExpandedCounts e =
        decomp::countExpanded(nomap.deviceCircuit, gs);
    m.native2qNoMap = e.twoQubit;
    m.depth2qNoMap = e.twoQubitDepth;
    m.depthAllNoMap = e.depth;
}

} // namespace

CompilationMetrics
computeMetrics(const ScheduleResult &sched, const qcir::Circuit &step,
               device::GateSet gs)
{
    CompilationMetrics m;
    m.swaps = sched.swapCount;
    m.dressed = sched.dressedCount;
    fillMapped(m, sched.deviceCircuit, gs);
    fillNoMap(m, step, gs);
    return m;
}

CompilationMetrics
computeCircuitMetrics(const qcir::Circuit &mapped,
                      const qcir::Circuit &step, device::GateSet gs)
{
    CompilationMetrics m;
    m.swaps = mapped.countKind(qcir::OpKind::Swap) +
              mapped.countKind(qcir::OpKind::DressedSwap);
    m.dressed = mapped.countKind(qcir::OpKind::DressedSwap);
    fillMapped(m, mapped, gs);
    fillNoMap(m, step, gs);
    return m;
}

} // namespace core
} // namespace tqan
