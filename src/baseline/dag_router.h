/**
 * @file
 * Shared infrastructure for the baseline (general-purpose) compilers.
 *
 * Baselines respect the input circuit's gate order via a dependency
 * DAG over its two-qubit ops -- exactly the constraint the paper's
 * permutation-aware techniques remove.  Every baseline produces a
 * BaselineResult: a device-qubit circuit with explicit SWAPs.
 */

#ifndef TQAN_BASELINE_DAG_ROUTER_H
#define TQAN_BASELINE_DAG_ROUTER_H

#include <random>

#include "device/topology.h"
#include "qap/qap.h"
#include "qcir/circuit.h"
#include "qcir/dag.h"

namespace tqan {
namespace baseline {

/** Output common to all baseline compilers. */
struct BaselineResult
{
    qcir::Circuit deviceCircuit;  ///< device qubits, SWAPs explicit
    qap::Placement initialMap;
    qap::Placement finalMap;
    int swapCount = 0;
};

/**
 * The two-qubit-op sub-circuit (the object the baselines route);
 * 1q ops do not reorder 2q ops beyond what shared qubits already
 * impose, so dropping them preserves the dependency structure.
 */
qcir::Circuit twoQubitSubcircuit(const qcir::Circuit &c);

/**
 * Keeps single-qubit ops attached to their positions: for the j-th
 * two-qubit op of the circuit (sub-op j of twoQubitSubcircuit()),
 * the single-qubit ops that must execute before it on its qubits.
 * Emitting before(j) whenever sub-op j is emitted, plus tail() at the
 * end, preserves per-qubit op order (the only order that matters)
 * even though the router reorders independent two-qubit ops.
 */
class OneQubitInterleaver
{
  public:
    explicit OneQubitInterleaver(const qcir::Circuit &c);

    /** 1q ops to emit before sub-op j (logical qubits). */
    const std::vector<qcir::Op> &before(int j) const
    {
        return before_[j];
    }
    /** 1q ops left after the last 2q op per qubit. */
    const std::vector<qcir::Op> &tail() const { return tail_; }

    /** Emit before(j) into a result under the current placement. */
    void emitBefore(int j, const qap::Placement &phi,
                    BaselineResult &res) const;
    /** Emit the tail under the final placement. */
    void emitTail(const qap::Placement &phi,
                  BaselineResult &res) const;

  private:
    std::vector<std::vector<qcir::Op>> before_;
    std::vector<qcir::Op> tail_;
};

/** Replay check used by tests: every 2q op coupled; SWAP chain
 * consistent; all input 2q ops executed (respecting multiplicity). */
bool baselineIsValid(const qcir::Circuit &input,
                     const device::Topology &topo,
                     const BaselineResult &r);

} // namespace baseline
} // namespace tqan

#endif // TQAN_BASELINE_DAG_ROUTER_H
