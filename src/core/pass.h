/**
 * @file
 * The pass-pipeline backbone of the compiler.
 *
 * A compilation is a sequence of Pass objects run by a PassManager
 * over one shared CompileContext.  The context owns the working
 * circuit, the target topology, the all-pairs distance matrix (the
 * topology's hop matrix, or a memoized noise-aware matrix when
 * calibration data is attached), the seeded RNG and
 * the result slots each stage fills in.  The manager accounts wall
 * time per pass, so callers get the paper's Sec. V-D runtime
 * breakdown for free, whatever the pipeline shape.
 */

#ifndef TQAN_CORE_PASS_H
#define TQAN_CORE_PASS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/router.h"
#include "core/scheduler.h"
#include "device/noise_map.h"
#include "qap/qap.h"

namespace tqan {
namespace core {

/** Shared state the passes read and write. */
struct CompileContext
{
    CompileContext(qcir::Circuit circuit_,
                   const device::Topology &topo_, std::uint64_t seed_)
        : circuit(std::move(circuit_)), topo(&topo_), seed(seed_),
          rng(seed_)
    {
    }

    /** Working circuit; passes may rewrite it (e.g. unifying). */
    qcir::Circuit circuit;
    const device::Topology *topo;

    std::uint64_t seed;
    std::mt19937_64 rng;  ///< shared generator for tie-breaking
    int jobs = 0;         ///< trial workers (CompilerOptions::jobs)

    /** Optional calibration data: when set, distances() yields the
     * noise-aware matrix instead of hop counts. */
    std::shared_ptr<const device::NoiseMap> noiseMap;
    double noiseLambda = 1.0;

    /** Results, filled by the mapping / routing / scheduling passes. */
    qap::Placement placement;
    RoutingResult routing;
    ScheduleResult sched;

    /**
     * The all-pairs location-distance matrix every pass and mapper
     * trial reads: the topology's own hop matrix, or, when a
     * NoiseMap is attached, the noise-aware matrix, computed on
     * first use and memoized here (it is specific to this job).
     */
    const linalg::FlatMatrix &distances() const;

  private:
    mutable std::optional<linalg::FlatMatrix> noiseDist_;
};

/** One compilation stage. */
class Pass
{
  public:
    virtual ~Pass() = default;
    virtual std::string name() const = 0;
    virtual void run(CompileContext &ctx) const = 0;
};

/** Wall time of one executed pass. */
struct PassTiming
{
    std::string pass;
    double seconds = 0.0;
};

/** Sum of the entries whose pass name matches (0.0 if none). */
double passSeconds(const std::vector<PassTiming> &times,
                   const std::string &pass);

/**
 * Runs passes in insertion order, timing each one.
 *
 * @code
 *   PassManager pm;
 *   pm.add(makeMappingPass()).add(makeRoutingPass());
 *   auto times = pm.run(ctx);
 * @endcode
 */
class PassManager
{
  public:
    PassManager &add(std::unique_ptr<Pass> pass);

    /** Registered passes, in execution order. */
    std::vector<std::string> passNames() const;

    /** Run every pass over the context; returns per-pass wall times
     * in execution order. */
    std::vector<PassTiming> run(CompileContext &ctx) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_PASS_H
