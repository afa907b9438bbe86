#include "qap/mapper.h"

#include "core/registry.h"
#include "qap/anneal.h"
#include "qap/placement.h"

namespace tqan {
namespace qap {

namespace {

class TabuMapper : public Mapper
{
  public:
    std::string name() const override { return "tabu"; }
    Placement map(const MapperRequest &req) const override
    {
        linalg::FlatMatrix flow = flowMatrixOf(*req.circuit);
        // The hop matrix's distance-side facts come with the topology.
        if (req.topo && req.dist == &req.topo->hopDistances())
            return bestOfTabu(flow, *req.topo, req.seed, req.trials,
                              req.tabu, req.jobs);
        return bestOfTabu(flow, *req.dist, req.seed, req.trials,
                          req.tabu, req.jobs);
    }
};

class AnnealMapper : public Mapper
{
  public:
    std::string name() const override { return "anneal"; }
    Placement map(const MapperRequest &req) const override
    {
        std::mt19937_64 rng(req.seed);
        return annealQap(flowMatrixOf(*req.circuit), *req.topo, rng);
    }
};

class GreedyMapper : public Mapper
{
  public:
    std::string name() const override { return "greedy"; }
    Placement map(const MapperRequest &req) const override
    {
        return greedyPlacement(interactionGraphOf(*req.circuit),
                               *req.topo);
    }
};

class LineMapper : public Mapper
{
  public:
    std::string name() const override { return "line"; }
    Placement map(const MapperRequest &req) const override
    {
        return linePlacement(req.circuit->numQubits(), *req.topo);
    }
};

class IdentityMapper : public Mapper
{
  public:
    std::string name() const override { return "identity"; }
    Placement map(const MapperRequest &req) const override
    {
        return identityPlacement(req.circuit->numQubits());
    }
};

const core::Registry<Mapper> &
mappers()
{
    static const auto table =
        core::Registry<Mapper>::of<TabuMapper, AnnealMapper,
                                   GreedyMapper, LineMapper,
                                   IdentityMapper>("mapper");
    return table;
}

} // namespace

bool
hasMapper(const std::string &name)
{
    return mappers().has(name);
}

const Mapper &
mapperByName(const std::string &name)
{
    return mappers().get(name);
}

std::vector<std::string>
mapperNames()
{
    return mappers().names();
}

} // namespace qap
} // namespace tqan
