/**
 * @file
 * Whole-circuit gate-decomposition passes (paper Fig. 2, "Gate
 * decomposition and optimization").
 *
 * Two flavours:
 *
 *  - decomposeToCnot / decomposeToCz: exact, verified synthesis into
 *    CNOT/CZ + single-qubit rotations using constructive templates
 *    (interaction blocks conjugated into the right Pauli frame and
 *    full KAK for arbitrary U2q payloads).  The emitted circuit's
 *    unitary equals the input's (up to global phase); generic
 *    three-axis interactions use a 4-CNOT constructive template (the
 *    minimal-count metric in the benchmarks uses the exact
 *    SBM counts from native_count.h; the numerical decomposer below
 *    reaches the 3-CNOT minimum when needed).
 *
 *  - expandForMetrics: count-exact structural expansion for *any*
 *    gate set: each two-qubit op becomes its minimal number of native
 *    gates with interleaved single-qubit layers, giving faithful
 *    hardware gate-count and depth metrics (the quantities plotted in
 *    the paper's figures).  countExpanded gives the same counts
 *    without building the expansion.
 *
 * Peephole helpers shared with the baselines (adjacent-CNOT
 * cancellation, adjacent-1q merging, adjacent same-pair 2q merging)
 * live here too.
 */

#ifndef TQAN_DECOMP_PASS_H
#define TQAN_DECOMP_PASS_H

#include "device/topology.h"
#include "qcir/circuit.h"

namespace tqan {
namespace decomp {

/** Exact synthesis into {CNOT, 1q rotations}. */
qcir::Circuit decomposeToCnot(const qcir::Circuit &c);

/** Exact synthesis into {CZ, 1q rotations}. */
qcir::Circuit decomposeToCz(const qcir::Circuit &c);

/**
 * Count-exact structural expansion into the target gate set: every
 * two-qubit op is replaced by nativeCountOp() native gates on the
 * same pair with single-qubit layers before/between/after (the KAK
 * synthesis shape), then adjacent single-qubit ops are merged.
 * Intended for gate-count/depth metrics, not for execution.
 */
qcir::Circuit expandForMetrics(const qcir::Circuit &c,
                               device::GateSet gs);

/** The three counts the metrics read off expandForMetrics(c, gs). */
struct ExpandedCounts
{
    int twoQubit = 0;       ///< twoQubitCount()
    int twoQubitDepth = 0;  ///< twoQubitDepth()
    int depth = 0;          ///< depth()
};

/**
 * expandForMetrics(c, gs)'s counts without building it: one pass
 * over c with per-wire ASAP levels and a "last op on this wire is
 * single-qubit" flag (a 1q op after another 1q op is merged away and
 * adds nothing).  O(ops) time, O(qubits) memory.
 */
ExpandedCounts countExpanded(const qcir::Circuit &c,
                             device::GateSet gs);

/** @name Peephole passes. @{ */
/** Remove pairs of adjacent identical CNOTs, cascading until none
 * are left (also used by the Paulihedral-like baseline's
 * block-boundary cancellation).  One pass over the ops with a stack
 * of surviving ops per wire: O(ops) time and memory. */
qcir::Circuit cancelAdjacentCnots(const qcir::Circuit &c);

/** Merge runs of single-qubit ops on one qubit into a single U1q. */
qcir::Circuit mergeAdjacent1q(const qcir::Circuit &c);

/**
 * Merge adjacent two-qubit ops acting on the same qubit pair into one
 * U2q (the FullPeepholeOptimise-style resynthesis available to the
 * general-purpose baselines; valid for any circuit).
 */
qcir::Circuit mergeAdjacentSamePair(const qcir::Circuit &c);
/** @} */

} // namespace decomp
} // namespace tqan

#endif // TQAN_DECOMP_PASS_H
