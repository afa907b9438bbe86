/**
 * @file
 * Compilation metrics (paper Sec. IV, "Metrics"): inserted SWAPs,
 * hardware two-qubit gate count, two-qubit depth, all-gate depth, and
 * overheads against the connectivity-unconstrained "NoMap" baseline.
 *
 * The decomposed counts are those of decomp::expandForMetrics, but
 * counted in one pass (decomp::countExpanded) rather than read off an
 * expanded circuit: O(ops) time and O(qubits) memory per circuit.
 */

#ifndef TQAN_CORE_METRICS_H
#define TQAN_CORE_METRICS_H

#include "core/scheduler.h"
#include "device/topology.h"

namespace tqan {
namespace core {

struct CompilationMetrics
{
    int swaps = 0;        ///< inserted SWAPs (dressed ones included)
    int dressed = 0;      ///< SWAPs merged with circuit unitaries
    int native2q = 0;     ///< hardware two-qubit gates after decomp
    int depth2q = 0;      ///< two-qubit gate depth after decomp
    int depthAll = 0;     ///< all-gate depth after decomp
    int native2qNoMap = 0;
    int depth2qNoMap = 0;
    int depthAllNoMap = 0;

    /** Increase in gate count vs. NoMap (the paper's "overhead"). */
    int gateOverhead() const { return native2q - native2qNoMap; }
    int depth2qOverhead() const { return depth2q - depth2qNoMap; }
    int depthAllOverhead() const { return depthAll - depthAllNoMap; }
};

/**
 * Compute the metrics of a scheduled circuit against the NoMap
 * baseline of the (unified) input step circuit for a given native
 * gate set.
 */
CompilationMetrics computeMetrics(const ScheduleResult &sched,
                                  const qcir::Circuit &step,
                                  device::GateSet gs);

/** Metrics of an arbitrary mapped circuit (used by baselines).  The
 * swap/dressed counts are read from the circuit's op kinds. */
CompilationMetrics computeCircuitMetrics(const qcir::Circuit &mapped,
                                         const qcir::Circuit &step,
                                         device::GateSet gs);

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_METRICS_H
