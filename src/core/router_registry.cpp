#include "core/router_registry.h"

#include "core/registry.h"
#include "route/rrr.h"

namespace tqan {
namespace core {

namespace {

/** The paper's Algorithm 1 behind the Router interface. */
class GreedyRouter : public Router
{
  public:
    std::string name() const override { return "greedy"; }
    RoutingResult route(const RouteRequest &req) const override
    {
        return routePermutationAware(*req.circuit, *req.initial,
                                     *req.topo, *req.rng, req.opt);
    }
};

class RrrRouter : public Router
{
  public:
    std::string name() const override { return "rrr"; }
    RoutingResult route(const RouteRequest &req) const override
    {
        return route::routeNegotiatedCongestion(
            *req.circuit, *req.initial, *req.topo, *req.rng, req.opt);
    }
};

const Registry<Router> &
routers()
{
    static const auto table =
        Registry<Router>::of<GreedyRouter, RrrRouter>("router");
    return table;
}

} // namespace

bool
hasRouter(const std::string &name)
{
    return routers().has(name);
}

const Router &
routerByName(const std::string &name)
{
    return routers().get(name);
}

std::vector<std::string>
routerNames()
{
    return routers().names();
}

} // namespace core
} // namespace tqan
