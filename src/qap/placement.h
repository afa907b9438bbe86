/**
 * @file
 * Non-QAP initial placements.
 *
 * Baseline compilers use their own layout strategies: a greedy
 * subgraph placement (the class of Qiskit's dense layout / t|ket>'s
 * graph placement) and a line placement (the fallback the paper uses
 * for t|ket> on large circuits).  Also used as 2QAN ablation options.
 */

#ifndef TQAN_QAP_PLACEMENT_H
#define TQAN_QAP_PLACEMENT_H

#include <random>
#include <utility>
#include <vector>

#include "qap/qap.h"

namespace tqan {
namespace qap {

/** Circuit qubit i -> device qubit i. */
Placement identityPlacement(int n);

/** Uniformly random injective placement. */
Placement randomPlacement(int n, int deviceQubits,
                          std::mt19937_64 &rng);

/**
 * Greedy interaction-graph embedding: seed the highest-degree circuit
 * qubit at the highest-degree device qubit, then repeatedly place the
 * unplaced circuit qubit with the most placed neighbours at the free
 * device qubit minimizing the distance sum to those neighbours.
 */
Placement greedyPlacement(const graph::Graph &interaction,
                          const device::Topology &topo);

/**
 * Line placement: walk a long simple path in the device and place
 * circuit qubits 0..n-1 along it (the paper's t|ket> fallback).
 */
Placement linePlacement(int n, const device::Topology &topo);

/**
 * Apply a SWAP on device qubits (p, q) to a placement and its inverse
 * (invertPlacement): the circuit qubits sitting on p and q, if any,
 * trade places.  A SWAP is its own inverse, so the same call also
 * un-applies it.
 */
inline void
applySwap(Placement &phi, std::vector<int> &inv, int p, int q)
{
    int la = inv[p], lb = inv[q];
    if (la >= 0)
        phi[la] = q;
    if (lb >= 0)
        phi[lb] = p;
    std::swap(inv[p], inv[q]);
}

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_PLACEMENT_H
