#include "core/compiler.h"

#include <stdexcept>
#include <utility>

#include "core/passes.h"

namespace tqan {
namespace core {

TqanCompiler::TqanCompiler(device::Topology topo, CompilerOptions opt)
    : topo_(std::move(topo)), opt_(opt)
{
}

PassManager
TqanCompiler::buildPipeline() const
{
    PassManager pm;
    if (opt_.unifyCircuit)
        pm.add(makeUnifyPass());
    pm.add(makeMappingPass(opt_.mapper, opt_.mapperTrials, opt_.tabu));
    pm.add(makeRoutingPass(opt_.router));
    pm.add(makeSchedulingPass(opt_.hybridSchedule));
    return pm;
}

CompileResult
TqanCompiler::compile(const qcir::Circuit &step) const
{
    if (step.numQubits() > topo_.numQubits())
        throw std::invalid_argument(
            "TqanCompiler: circuit larger than device");

    CompileContext ctx(step, topo_, opt_.seed);
    ctx.jobs = opt_.jobs;
    ctx.noiseMap = opt_.noiseMap;
    ctx.noiseLambda = opt_.noiseLambda;

    CompileResult res;
    res.passTimes = buildPipeline().run(ctx);
    res.placement = std::move(ctx.placement);
    res.routing = std::move(ctx.routing);
    res.sched = std::move(ctx.sched);
    res.mappingSeconds = passSeconds(res.passTimes, "mapping");
    res.routingSeconds = passSeconds(res.passTimes, "routing");
    res.schedulingSeconds = passSeconds(res.passTimes, "scheduling");
    return res;
}

} // namespace core
} // namespace tqan
