/**
 * @file
 * Staged path search over the device graph — the three phases of the
 * VLSI global router (pattern / monotonic / HUM maze search) mapped
 * onto qubit routing:
 *
 *   direct    - plain BFS shortest path, deterministic neighbour
 *               order.  The "pattern routing" analogue: cheapest to
 *               compute, blind to congestion.  Used while the cost
 *               model is idle (no history yet).
 *   monotonic - minimum congestion cost among *shortest* paths:
 *               Dijkstra restricted to the shortest-path DAG toward
 *               the target (every step must decrease the hop
 *               distance).  Path length stays optimal; contended
 *               vertices are avoided when an equal-length detour
 *               exists.
 *   maze      - full Dijkstra on the congestion cost (base 1 per
 *               step keeps paths near-shortest unless congestion
 *               genuinely warrants a detour).  The HUM analogue,
 *               used when rerouting ripped-up nets.
 *
 * All searches are deterministic: ties break toward the smaller
 * vertex id, never the rng, so routing is reproducible and
 * jobs-invariant by construction.
 *
 * Every search runs in a SearchWorkspace owned by its caller (one per
 * routing call, never shared between threads) and returns it clean,
 * resetting only the vertices it reached: a search costs what it
 * visits, not an O(N) allocate-and-fill of the device.
 */

#ifndef TQAN_ROUTE_PATH_SEARCH_H
#define TQAN_ROUTE_PATH_SEARCH_H

#include <utility>
#include <vector>

#include "device/topology.h"
#include "route/cost_model.h"

namespace tqan {
namespace route {

/** Per-vertex search state of one device, at rest between searches
 * (dist = inf, prev = -1, done = 0, touched and heap empty). */
struct SearchWorkspace
{
    explicit SearchWorkspace(int numVertices);

    std::vector<double> dist;
    std::vector<int> prev;
    std::vector<char> done;    ///< settled (Dijkstra) / seen (BFS)
    std::vector<int> touched;  ///< reached vertices; the BFS queue
    std::vector<std::pair<double, int>> heap;
};

/** BFS shortest path s..t inclusive; empty when unreachable. */
std::vector<int> pathDirect(const device::Topology &topo, int s, int t,
                            SearchWorkspace &ws);

/** Min congestion cost among shortest (hop-optimal) paths s..t. */
std::vector<int> pathMonotonic(const device::Topology &topo,
                               const CostModel &cost, int s, int t,
                               SearchWorkspace &ws);

/** Min congestion cost over all paths s..t (detours allowed). */
std::vector<int> pathMaze(const device::Topology &topo,
                          const CostModel &cost, int s, int t,
                          SearchWorkspace &ws);

/**
 * Min bias cost among shortest paths s..t that avoid the `blocked`
 * vertices (the commit-phase search: blocked = vertices already
 * owned by committed SWAP chains of this epoch).  `bias[v]` adds to
 * the unit entry cost of v and must be >= 0; s and t must not be
 * blocked.  Empty when no hop-optimal path clears the mask — the
 * caller falls back to the negotiated (possibly detoured) plan.
 */
std::vector<int> pathConstrained(const device::Topology &topo, int s,
                                 int t,
                                 const std::vector<char> &blocked,
                                 const std::vector<double> &bias,
                                 SearchWorkspace &ws);

} // namespace route
} // namespace tqan

#endif // TQAN_ROUTE_PATH_SEARCH_H
