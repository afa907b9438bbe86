/**
 * @file
 * The 2QAN compiler pipeline (paper Fig. 2): circuit unitary
 * unifying -> QAP qubit mapping -> permutation-aware routing (with
 * SWAP unifying) -> permutation-aware scheduling.  Gate decomposition
 * is applied afterwards by the decomp passes, keeping the pipeline
 * independent of the hardware gate set.
 *
 * TqanCompiler::compile runs the four stages in that fixed order and
 * times each one (CompileResult::passTimes, the paper's Sec. V-D
 * runtime breakdown).  The mapper and router stages are strategies
 * picked by name (CompilerOptions::mapper, CompilerOptions::router.name)
 * from their core::Registry tables (core/registry.h).
 */

#ifndef TQAN_CORE_COMPILER_H
#define TQAN_CORE_COMPILER_H

#include <cstdint>

#include <memory>
#include <string>
#include <vector>

#include "core/router.h"
#include "device/noise_map.h"
#include "core/scheduler.h"
#include "qap/tabu.h"

namespace tqan {
namespace core {

struct CompilerOptions
{
    /** Initial-placement strategy, by qap::Mapper registry name:
     * "tabu" (the paper's QAP, Sec. III-A) or one of the ablation
     * alternatives "anneal", "greedy", "line", "identity".  An
     * unknown name makes compile() throw std::invalid_argument. */
    std::string mapper = "tabu";
    /** Randomized mapping trials; the paper uses 5 and keeps the
     * best. */
    int mapperTrials = 5;
    /** Workers for the randomized mapping trials, on the
     * process-wide pool with the calling thread taking part; 0 takes
     * as many as the pool offers (hardware threads - 1, plus the
     * caller), at most one per trial.  Trials use derived seeds
     * (seed + trial), so any jobs value produces the same placement
     * as the sequential run (jobs = 1). */
    int jobs = 0;
    /** Merge same-pair Interact ops before compiling (Sec. III-C). */
    bool unifyCircuit = true;
    /** Hybrid ALAP scheduler (Alg. 2) vs. generic order-respecting
     * scheduler (ablation, Fig. 6a). */
    bool hybridSchedule = true;
    /** Routing stage: which registered router runs (router.name) and
     * its knobs, dressed-SWAP merging (router.unifySwaps, Sec.
     * III-C) included.  Folded in here so the service cache key
     * canonicalizes every routing field with the rest of the
     * options. */
    RouterOptions router;
    qap::TabuOptions tabu;
    /**
     * Optional calibration data.  When set, the Tabu mapper solves
     * the QAP against noise-aware distances (couplers worse than the
     * device average cost proportionally more), implementing the
     * noise-aware placement the paper lists as future work (Sec.
     * VII).  Routing still uses hop distances.
     */
    std::shared_ptr<const device::NoiseMap> noiseMap;
    /** Weight of the noise term in the noise-aware distances. */
    double noiseLambda = 1.0;
    std::uint64_t seed = 7;
};

/** Wall time of one compile stage ("unify", "mapping", "routing",
 * "scheduling"; "compile" for a backend timed as a whole). */
struct PassTiming
{
    std::string pass;
    double seconds = 0.0;
};

/** Sum of the entries whose pass name matches (0.0 if none). */
double passSeconds(const std::vector<PassTiming> &times,
                   const std::string &pass);

/** Full result of one compilation, with per-stage wall times. */
struct CompileResult
{
    ScheduleResult sched;
    /** Wall time of every executed stage, in execution order. */
    std::vector<PassTiming> passTimes;

    /** @name Layout accessors.
     * Every backend fills the sched slot, so these are the one
     * place callers (verification, QASM consumers, chained steps)
     * read the qubit layouts from — no more reconstructing the
     * final permutation from routing SWAP traces.
     * initialLayout()[q] / finalLayout()[q] = device qubit holding
     * logical qubit q before / after the device circuit.  The
     * verify subsystem property-tests finalLayout() against the
     * SWAP trace of the device circuit for every backend. @{ */
    const qap::Placement &initialLayout() const
    {
        return sched.initialMap;
    }
    const qap::Placement &finalLayout() const
    {
        return sched.finalMap;
    }
    /** @} */
};

/**
 * The 2QAN compiler for a fixed target device.
 *
 * Usage:
 * @code
 *   TqanCompiler comp(device::montreal27());
 *   auto result = comp.compile(ham::trotterStep(h, 1.0));
 *   auto hw = decomp::decomposeToCnot(result.sched.deviceCircuit);
 * @endcode
 */
class TqanCompiler
{
  public:
    explicit TqanCompiler(device::Topology topo,
                          CompilerOptions opt = CompilerOptions());

    const device::Topology &topology() const { return topo_; }
    const CompilerOptions &options() const { return opt_; }

    /**
     * Compile one Trotter-step (or QAOA-layer) circuit: unify (when
     * CompilerOptions::unifyCircuit), map, route, schedule.  Only
     * Interact two-qubit ops participate in routing; single-qubit
     * ops ride along freely.
     */
    CompileResult compile(const qcir::Circuit &step) const;

  private:
    device::Topology topo_;
    CompilerOptions opt_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_COMPILER_H
