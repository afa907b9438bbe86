/**
 * @file
 * Gate scheduling (paper Sec. III-D).
 *
 * Three schedulers:
 *
 *  - scheduleNoMap: dependency-free scheduling of one Trotter step by
 *    greedy graph coloring of the gate-conflict graph (the paper's
 *    all-to-all "NoMap" baseline used to compute overheads).  The
 *    graph is built from per-qubit op lists, so its cost follows the
 *    number of conflicting pairs, not ops squared.
 *
 *  - scheduleHybridAlap: the paper's Algorithm 2.  As-late-as-
 *    possible sweep starting from the *last* qubit map: at each cycle
 *    every unscheduled circuit operator that is nearest-neighbour
 *    under the current map and whose qubits are free is scheduled
 *    (permutation freedom!), then SWAPs are un-applied (in reverse
 *    insertion order) once all operators that depend on them are
 *    scheduled.  Finally the cycle sequence is reversed.  A cycle
 *    visits only the ready set (unscheduled ops NN under the current
 *    map, in op order) and an un-applied SWAP re-tests only the ops
 *    on its two qubits, so the sweep costs O(ops + sum over cycles
 *    of the ready set + SWAPs x ops per qubit), not
 *    O(cycles x ops).
 *
 *  - scheduleGenericAlap: ablation baseline mimicking a conventional
 *    scheduler that respects the routing pass's gate order (paper
 *    Fig. 6a): each operator executes exactly at its assigned map.
 *
 * All schedulers emit the result as a device-qubit circuit in
 * cycle-major order plus the cycle structure.  The routed schedulers
 * replay the routing's map chain (RoutingResult keeps only its two
 * ends): scheduleHybridAlap starts from finalMap and un-applies each
 * SWAP as it walks back, scheduleGenericAlap applies them forward
 * from initial; O(1) per SWAP, no per-SWAP placement copy.
 */

#ifndef TQAN_CORE_SCHEDULER_H
#define TQAN_CORE_SCHEDULER_H

#include "core/router.h"

namespace tqan {
namespace core {

/** A scheduled, hardware-mapped circuit. */
struct ScheduleResult
{
    /** Ops on device qubits, cycle-major forward order; 1q ops are
     * appended after the two-qubit schedule. */
    qcir::Circuit deviceCircuit;
    /** Two-qubit cycle structure: cycles[t] = ops (device-qubit
     * space, indices into deviceCircuit) executed in cycle t. */
    std::vector<std::vector<int>> cycles;
    qap::Placement initialMap;  ///< logical -> device at t = 0
    qap::Placement finalMap;    ///< logical -> device after the run
    int swapCount = 0;
    int dressedCount = 0;

    /** Depth of the two-qubit schedule (= cycles.size()). */
    int twoQubitDepth() const
    {
        return static_cast<int>(cycles.size());
    }
};

/**
 * Schedule one Trotter step assuming all-to-all connectivity by
 * greedy coloring of the conflict graph (nodes = two-qubit ops,
 * edges = shared qubits).  Single-qubit ops are appended.
 */
ScheduleResult scheduleNoMap(const qcir::Circuit &circuit);

/** Paper Algorithm 2 (hybrid, permutation-aware, ALAP). */
ScheduleResult scheduleHybridAlap(const qcir::Circuit &circuit,
                                  const device::Topology &topo,
                                  const RoutingResult &routing);

/** Conventional order-respecting scheduler (ablation, Fig. 6a). */
ScheduleResult scheduleGenericAlap(const qcir::Circuit &circuit,
                                   const device::Topology &topo,
                                   const RoutingResult &routing);

/**
 * Validation helper: replays the scheduled device circuit and checks
 * (a) all two-qubit ops act on coupled pairs, (b) the SWAP chain
 * transforms initialMap into finalMap, and (c) the multiset of
 * executed Hamiltonian operators matches the input circuit (each
 * Interact op exactly once, dressed or plain).
 */
bool scheduleIsValid(const qcir::Circuit &circuit,
                     const device::Topology &topo,
                     const ScheduleResult &s);

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_SCHEDULER_H
