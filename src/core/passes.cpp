#include "core/passes.h"

#include <utility>

#include "core/router_registry.h"
#include "qap/mapper.h"

namespace tqan {
namespace core {

namespace {

class UnifyPass : public Pass
{
  public:
    std::string name() const override { return "unify"; }
    void run(CompileContext &ctx) const override
    {
        ctx.circuit = qcir::unifySamePairInteractions(ctx.circuit);
    }
};

class MappingPass : public Pass
{
  public:
    MappingPass(std::string mapper, int trials, qap::TabuOptions tabu)
        : mapper_(std::move(mapper)), trials_(trials), tabu_(tabu)
    {
    }

    std::string name() const override { return "mapping"; }
    void run(CompileContext &ctx) const override
    {
        qap::MapperRequest req;
        req.circuit = &ctx.circuit;
        req.topo = ctx.topo;
        req.dist = &ctx.distances();
        req.seed = ctx.seed;
        req.trials = trials_;
        req.jobs = ctx.jobs;
        req.tabu = tabu_;
        ctx.placement = qap::mapperByName(mapper_).map(req);
    }

  private:
    std::string mapper_;
    int trials_;
    qap::TabuOptions tabu_;
};

class RoutingPass : public Pass
{
  public:
    explicit RoutingPass(RouterOptions opt) : opt_(std::move(opt)) {}

    std::string name() const override { return "routing"; }
    void run(CompileContext &ctx) const override
    {
        RouteRequest req;
        req.circuit = &ctx.circuit;
        req.initial = &ctx.placement;
        req.topo = ctx.topo;
        req.rng = &ctx.rng;
        req.opt = opt_;
        ctx.routing = routerByName(opt_.name).route(req);
    }

  private:
    RouterOptions opt_;
};

class SchedulingPass : public Pass
{
  public:
    explicit SchedulingPass(bool hybrid) : hybrid_(hybrid) {}

    std::string name() const override { return "scheduling"; }
    void run(CompileContext &ctx) const override
    {
        ctx.sched = hybrid_ ? scheduleHybridAlap(ctx.circuit,
                                                 *ctx.topo,
                                                 ctx.routing)
                            : scheduleGenericAlap(ctx.circuit,
                                                  *ctx.topo,
                                                  ctx.routing);
    }

  private:
    bool hybrid_;
};

} // namespace

std::unique_ptr<Pass>
makeUnifyPass()
{
    return std::unique_ptr<Pass>(new UnifyPass);
}

std::unique_ptr<Pass>
makeMappingPass(std::string mapper, int trials, qap::TabuOptions tabu)
{
    return std::unique_ptr<Pass>(
        new MappingPass(std::move(mapper), trials, tabu));
}

std::unique_ptr<Pass>
makeRoutingPass(RouterOptions opt)
{
    return std::unique_ptr<Pass>(new RoutingPass(std::move(opt)));
}

std::unique_ptr<Pass>
makeSchedulingPass(bool hybrid)
{
    return std::unique_ptr<Pass>(new SchedulingPass(hybrid));
}

} // namespace core
} // namespace tqan
