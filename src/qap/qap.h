/**
 * @file
 * Qubit initial placement as a Quadratic Assignment Problem (paper
 * Sec. III-A, Eq. 7).
 *
 * Circuit qubits are facilities, device qubits are locations, the
 * flow f_ij counts interactions between circuit qubits i and j, and
 * the distance d is the device hop-distance matrix.  The objective is
 *
 *     min_phi  sum_ij f_ij d_{phi(i) phi(j)}.
 *
 * The paper solves the QAP with Tabu search (Glover); we implement
 * the classic robust tabu search plus a simulated-annealing
 * alternative for ablation.
 *
 * Flow and distance matrices are linalg::FlatMatrix — contiguous
 * row-major buffers the solvers can walk without per-row pointer
 * chasing (`m[i][j]` indexing still works).
 */

#ifndef TQAN_QAP_QAP_H
#define TQAN_QAP_QAP_H

#include <vector>

#include "device/topology.h"
#include "ham/hamiltonian.h"
#include "linalg/flat_matrix.h"
#include "qcir/circuit.h"

namespace tqan {
namespace qap {

/**
 * Placement of circuit qubits onto device qubits:
 * placement[circuit qubit] = device qubit.  Injective; a device may
 * have more qubits than the circuit.
 */
using Placement = std::vector<int>;

/** Inverse view: device qubit -> circuit qubit or -1 if unused. */
std::vector<int> invertPlacement(const Placement &p, int deviceQubits);

/** True iff p is injective and within the device range. */
bool placementIsValid(const Placement &p, int deviceQubits);

/**
 * Interaction-count flow matrix of a Hamiltonian (f_ij of Eq. 7):
 * one unit per unified two-qubit term on (i, j).
 */
linalg::FlatMatrix flowMatrix(const ham::TwoLocalHamiltonian &h);

/** Interaction-count flow matrix straight from a circuit's two-qubit
 * ops (one unit per op, both triangles filled). */
linalg::FlatMatrix flowMatrixOf(const qcir::Circuit &c);

/** Interaction graph of a circuit: one edge per distinct interacting
 * qubit pair. */
graph::Graph interactionGraphOf(const qcir::Circuit &c);

/** QAP objective of Eq. 7 for a given placement. */
double qapCost(const linalg::FlatMatrix &flow,
               const device::Topology &topo, const Placement &p);

/**
 * QAP objective against an arbitrary location-distance matrix (hop
 * distances, or the noise-aware distances of device::NoiseMap).
 */
double qapCostMatrix(const linalg::FlatMatrix &flow,
                     const linalg::FlatMatrix &dist,
                     const Placement &p);

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_QAP_H
