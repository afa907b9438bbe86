#include "core/compiler.h"

#include <chrono>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/profile.h"
#include "core/router_registry.h"
#include "qap/mapper.h"

namespace tqan {
namespace core {

namespace {

/** Run one stage, appending its wall time to `times` and, when
 * profiling is on, to the "pass.<name>" scope. */
template <class Stage>
void
timed(std::vector<PassTiming> &times, const char *name, Stage &&stage)
{
    using Clock = std::chrono::steady_clock;
    auto t0 = Clock::now();
    stage();
    double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    times.push_back({name, seconds});
    if (profile::enabled())
        profile::record(std::string("pass.") + name, seconds);
}

} // namespace

double
passSeconds(const std::vector<PassTiming> &times,
            const std::string &pass)
{
    double s = 0.0;
    for (const auto &t : times)
        if (t.pass == pass)
            s += t.seconds;
    return s;
}

TqanCompiler::TqanCompiler(device::Topology topo, CompilerOptions opt)
    : topo_(std::move(topo)), opt_(opt)
{
}

CompileResult
TqanCompiler::compile(const qcir::Circuit &step) const
{
    if (step.numQubits() > topo_.numQubits())
        throw std::invalid_argument(
            "TqanCompiler: circuit larger than device");

    CompileResult res;
    res.passTimes.reserve(4);

    // Circuit unitary unifying (Sec. III-C).
    qcir::Circuit unified;
    const qcir::Circuit *circuit = &step;
    if (opt_.unifyCircuit)
        timed(res.passTimes, "unify", [&] {
            unified = qcir::unifySamePairInteractions(step);
            circuit = &unified;
        });

    // QAP initial placement (Sec. III-A), scored against the hop
    // matrix or, with calibration data, this compile's noise-aware
    // distances.
    qap::Placement placement;
    timed(res.passTimes, "mapping", [&] {
        std::optional<linalg::FlatMatrix> noiseDist;
        if (opt_.noiseMap)
            noiseDist = opt_.noiseMap->noiseAwareDistances(
                opt_.noiseLambda);
        qap::MapperRequest req;
        req.circuit = circuit;
        req.topo = &topo_;
        req.dist = noiseDist ? &*noiseDist : &topo_.hopDistances();
        req.seed = opt_.seed;
        req.trials = opt_.mapperTrials;
        req.jobs = opt_.jobs;
        req.tabu = opt_.tabu;
        placement = qap::mapperByName(opt_.mapper).map(req);
    });

    // Permutation-aware routing with SWAP unifying (Sec. III-B/C).
    RoutingResult routing;
    timed(res.passTimes, "routing", [&] {
        std::mt19937_64 rng(opt_.seed);
        RouteRequest req;
        req.circuit = circuit;
        req.initial = &placement;
        req.topo = &topo_;
        req.rng = &rng;
        req.opt = opt_.router;
        routing = routerByName(opt_.router.name).route(req);
    });

    // Hybrid ALAP (Alg. 2) or the generic ablation scheduler.
    timed(res.passTimes, "scheduling", [&] {
        res.sched = opt_.hybridSchedule
                        ? scheduleHybridAlap(*circuit, topo_, routing)
                        : scheduleGenericAlap(*circuit, topo_, routing);
    });
    return res;
}

} // namespace core
} // namespace tqan
