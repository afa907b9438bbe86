/**
 * @file
 * Permutation-aware qubit routing (paper Algorithm 1) with the
 * three-criteria SWAP selection and SWAP-unitary unifying (Sec. III-B
 * and III-C).
 *
 * Unlike general-purpose routers, no dependency order is imposed on
 * the circuit's two-qubit operators: any operator whose qubits are
 * nearest-neighbour under *some* reached mapping can execute there.
 * The router maintains the current map phi, repeatedly picks the
 * unrouted operator with the shortest hardware distance, and inserts
 * the best SWAP incident to its endpoints, chosen by:
 *
 *  1. least remaining routing cost (Eq. 7 over un-routed operators),
 *  2. best interleaving with already-mapped gates (depth estimate),
 *  3. mergeability with a circuit operator on the same qubit pair
 *     (the merged operator becomes a "dressed SWAP").
 *
 * Ties after all three criteria are broken uniformly at random with
 * the caller's seeded generator, as in the paper.
 */

#ifndef TQAN_CORE_ROUTER_H
#define TQAN_CORE_ROUTER_H

#include <random>
#include <string>

#include "device/topology.h"
#include "qap/qap.h"
#include "qcir/circuit.h"

namespace tqan {
namespace core {

/** One inserted SWAP: exchanges the occupants of device qubits p
 * and q (qap::applySwap), taking map i to map i + 1. */
struct SwapStep
{
    int p;             ///< device qubit
    int q;             ///< device qubit
    int dressedOp = -1; ///< circuit-op index merged into the SWAP
};

/**
 * Output of a router.  Map 0 is `initial` and map i + 1 is map i with
 * swaps[i] applied, ending on `finalMap`.  Only the two ends are
 * stored: consumers replay the chain with qap::applySwap, forward
 * from `initial` or backward from `finalMap`, in O(1) per SWAP, so
 * the result stays O(ops) in memory at any device size.
 */
struct RoutingResult
{
    /** initial[circuit qubit] = device qubit before swaps[0]. */
    qap::Placement initial;
    /** The map after the last SWAP (= initial without SWAPs). */
    qap::Placement finalMap;
    /** nnOps[i] = indices (into the input circuit) of two-qubit ops
     * first routed (nearest-neighbour) at map i, ascending; ops
     * absorbed into dressed SWAPs are removed from these lists.
     * nnOps.size() == swaps.size() + 1. */
    std::vector<std::vector<int>> nnOps;
    std::vector<SwapStep> swaps;

    int swapCount() const { return static_cast<int>(swaps.size()); }
    int dressedCount() const;
};

/**
 * Routing-stage configuration.  Lives inside CompilerOptions (one
 * member, `router`) so every field is covered by the service cache
 * key; tests/service/test_cache_key.cpp pins the layout with a
 * sizeof tripwire — extend the mirror there when adding fields.
 */
struct RouterOptions
{
    /** Registry name of the routing strategy (core/router_registry.h):
     * "greedy" is the paper's Algorithm 1, "rrr" the negotiated-
     * congestion ripup-and-reroute router (src/route/). */
    std::string name = "greedy";
    /** Enable criterion 3 and dressed-SWAP merging. */
    bool unifySwaps = true;
};

/** Livelock guard shared by the routers: a routing call gives up
 * (std::runtime_error) after kMaxSwapFactor * ops * max(2, qubits) / 2
 * + 64 SWAPs.  Generous; never hit in practice. */
constexpr long kMaxSwapFactor = 16;

/**
 * Route the two-qubit ops of a (single Trotter step) circuit.
 *
 * @param circuit application-level circuit; only Interact / U2q
 *        two-qubit ops participate, single-qubit ops are free.
 * @param initial placement of the circuit qubits.
 * @param topo device topology.
 * @param rng tie-break randomness (paper: random choice among ties).
 */
RoutingResult routePermutationAware(const qcir::Circuit &circuit,
                                    const qap::Placement &initial,
                                    const device::Topology &topo,
                                    std::mt19937_64 &rng,
                                    const RouterOptions &opt = {});

/**
 * Validation helper: replays the SWAP chain from `initial` and is
 * true iff every SWAP sits on a coupled pair, every two-qubit op of
 * the circuit is either nearest-neighbour under the map of its nnOps
 * bucket or absorbed into a dressed SWAP whose endpoints match the
 * op's qubits under the map in force when that SWAP ran, and the
 * replay ends on `finalMap`.  Used heavily by the tests.
 */
bool routingIsValid(const qcir::Circuit &circuit,
                    const device::Topology &topo,
                    const RoutingResult &r);

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_ROUTER_H
