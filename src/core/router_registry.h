/**
 * @file
 * Pluggable routing strategies in one immutable core::Registry
 * (core/registry.h), the same table shape as the mappers
 * (qap/mapper.h) and backends (core/backend.h): a Router turns a
 * placed step circuit into a RoutingResult, and callers select one
 * with a string.  A new router is one more entry in the table in
 * router_registry.cpp.
 *
 * Built-ins:
 *   greedy - the paper's Algorithm 1 permutation-aware router
 *            (core/router.h, routePermutationAware)
 *   rrr    - negotiated-congestion ripup-and-reroute (src/route/),
 *            the VLSI global-routing pattern adapted to SWAP routing
 *
 * Router selection is threaded through CompilerOptions::router.name,
 * the service cache key, sweep specs (`router =`), and
 * `tqanc --router`.
 */

#ifndef TQAN_CORE_ROUTER_REGISTRY_H
#define TQAN_CORE_ROUTER_REGISTRY_H

#include <string>
#include <vector>

#include "core/router.h"

namespace tqan {
namespace core {

/** One routing request; everything a Router may consult. */
struct RouteRequest
{
    /** Step circuit (post unify); only two-qubit ops route. */
    const qcir::Circuit *circuit = nullptr;
    /** Initial placement of the circuit qubits. */
    const qap::Placement *initial = nullptr;
    const device::Topology *topo = nullptr;
    /** Tie-break randomness; the compile seed fully determines the
     * stream, so results are reproducible and jobs-invariant. */
    std::mt19937_64 *rng = nullptr;
    RouterOptions opt;
};

/**
 * A routing strategy.  route() must emit a RoutingResult that
 * satisfies routingIsValid() for the request's circuit and topology:
 * every two-qubit op appears exactly once (nearest-neighbour in a
 * bucket, or absorbed into a dressed SWAP), and the map chain is
 * consistent with the SWAP list.  Instances are shared by every
 * compile, so route() must not keep state between calls.
 */
class Router
{
  public:
    virtual ~Router() = default;
    virtual std::string name() const = 0;
    virtual RoutingResult route(const RouteRequest &req) const = 0;
};

bool hasRouter(const std::string &name);

/** Shared instance by name; throws std::invalid_argument listing the
 * registered names when the lookup fails. */
const Router &routerByName(const std::string &name);

/** Registered router names, sorted. */
std::vector<std::string> routerNames();

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_ROUTER_REGISTRY_H
