/**
 * @file
 * Pluggable initial-placement strategies (the "mapping" stage of
 * TqanCompiler::compile).
 *
 * Every strategy implements the Mapper interface and is looked up by
 * name in one immutable core::Registry (core/registry.h); that name
 * is CompilerOptions::mapper.  The strategies mirror the paper:
 * "tabu" (QAP via tabu search, Sec. III-A, the paper's choice) plus
 * the ablation alternatives "anneal", "greedy", "line" and
 * "identity".  A new strategy is one more entry in the table in
 * mapper.cpp.
 *
 * The tabu strategy runs its randomized trials in parallel over
 * `jobs` threads with per-trial derived seeds (`seed + trial`), so
 * placements are bit-identical regardless of thread count.
 */

#ifndef TQAN_QAP_MAPPER_H
#define TQAN_QAP_MAPPER_H

#include <cstdint>
#include <string>
#include <vector>

#include "qap/qap.h"
#include "qap/tabu.h"

namespace tqan {
namespace qap {

/** Everything a placement strategy may consume. */
struct MapperRequest
{
    /** The (already unified) step circuit to place. */
    const qcir::Circuit *circuit = nullptr;
    const device::Topology *topo = nullptr;
    /**
     * Location-distance matrix the QAP solvers score against: the
     * topology's hop matrix, or noise-aware distances when
     * calibration data is attached (CompilerOptions::noiseMap).
     */
    const linalg::FlatMatrix *dist = nullptr;
    std::uint64_t seed = 0;
    int trials = 5;  ///< randomized-mapping restarts (paper: 5)
    int jobs = 0;    ///< trial workers (0: the pool's; bestOfTabu)
    TabuOptions tabu;
};

/** One initial-placement strategy.  Instances are shared by every
 * compile, so map() must not keep state between calls. */
class Mapper
{
  public:
    virtual ~Mapper() = default;
    virtual std::string name() const = 0;
    virtual Placement map(const MapperRequest &req) const = 0;
};

/** True iff a strategy of that name is registered. */
bool hasMapper(const std::string &name);

/** Shared instance by name; throws std::invalid_argument listing the
 * registered names when the lookup fails. */
const Mapper &mapperByName(const std::string &name);

/** Registered strategy names, sorted. */
std::vector<std::string> mapperNames();

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_MAPPER_H
