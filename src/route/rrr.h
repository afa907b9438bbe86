/**
 * @file
 * Negotiated-congestion ripup-and-reroute qubit router.
 *
 * The paper's Algorithm 1 commits each SWAP greedily and never
 * revisits a bad choice.  VLSI global routing solved the identical
 * congestion problem with iterative negotiation (PathFinder; the
 * VLSIGR RoutingCore of SNIPPETS.md Snippets 2-3): route every net
 * independently, let overflowed resources accumulate a history
 * penalty, rip up the offenders and reroute until the congestion
 * clears.  This router is that pattern adapted to SWAP routing:
 *
 *  1. Nets: every unrouted two-qubit op at hop distance > 1 under
 *     the current placement is a net between its endpoint device
 *     qubits.
 *  2. Plan: each net gets a device-graph path via staged phases
 *     (direct BFS / monotonic / maze Dijkstra — route/path_search.h)
 *     against the congestion cost model (route/cost_model.h), with
 *     incremental add_cost/del_cost maintenance.
 *  3. Negotiate: while planned paths overlap, charge history on the
 *     overflowed vertices, rip up the worst offenders and reroute
 *     them through the maze phase, up to kRrrMaxRounds rounds.
 *  4. Commit: a maximal vertex-disjoint set of planned paths (short
 *     paths first) executes as SWAP chains — each chain walks both
 *     endpoints toward the middle of its path, so the two half
 *     chains parallelise under the ALAP scheduler, and each SWAP
 *     still absorbs a mergeable circuit op as a dressed SWAP exactly
 *     like the greedy router.  Unserved nets keep their history and
 *     renegotiate next epoch; at least one net commits per epoch, so
 *     the loop terminates.
 *
 * Cost: the bookkeeping is incremental.  Each logical qubit keeps its
 * incident ops and its routed dressed-SWAP candidates, so a SWAP
 * re-tests, scores and absorbs only among the ops on its two
 * occupants; its work is proportional to those ops, not to every
 * unrouted net or every routed bucket.  The path searches share one
 * workspace per routing call (route/path_search.h), so a search pays
 * for the vertices it visits, not for the device size.
 *
 * Output is the same RoutingResult contract (maps/nnOps/swaps,
 * routingIsValid) the rest of the pipeline consumes, selected via
 * the "rrr" entry of the router registry (core/router_registry.h).
 */

#ifndef TQAN_ROUTE_RRR_H
#define TQAN_ROUTE_RRR_H

#include "core/router.h"

namespace tqan {
namespace route {

/** Ripup/reroute negotiation rounds per commit epoch. */
constexpr int kRrrMaxRounds = 6;
/** History-penalty increment per overflowed vertex per round. */
constexpr double kRrrHistoryWeight = 1.0;
/** Present-congestion multiplier in the maze-search edge cost. */
constexpr double kRrrPresentWeight = 1.0;

/** Route a placed step circuit by negotiated-congestion
 * ripup-and-reroute; same contract as routePermutationAware. */
core::RoutingResult
routeNegotiatedCongestion(const qcir::Circuit &circuit,
                          const qap::Placement &initial,
                          const device::Topology &topo,
                          std::mt19937_64 &rng,
                          const core::RouterOptions &opt = {});

} // namespace route
} // namespace tqan

#endif // TQAN_ROUTE_RRR_H
