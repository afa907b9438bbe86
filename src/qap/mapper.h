/**
 * @file
 * Pluggable initial-placement strategies (the "mapper" stage of the
 * pass pipeline).
 *
 * Every strategy implements the Mapper interface and is looked up by
 * name in a process-wide registry.  The built-in strategies mirror
 * the paper: "tabu" (QAP via tabu search, Sec. III-A, the paper's
 * choice) plus the ablation alternatives "anneal", "greedy", "line"
 * and "identity".  New strategies register with registerMapper() —
 * no core code changes required.
 *
 * The tabu strategy runs its randomized trials in parallel over
 * `jobs` threads with per-trial derived seeds (`seed + trial`), so
 * placements are bit-identical regardless of thread count.
 */

#ifndef TQAN_QAP_MAPPER_H
#define TQAN_QAP_MAPPER_H

#include <cstdint>
#include <functional>
#include <memory>
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
     * calibration data is attached (CompileContext::distances()).
     */
    const linalg::FlatMatrix *dist = nullptr;
    std::uint64_t seed = 0;
    int trials = 5;  ///< randomized-mapping restarts (paper: 5)
    int jobs = 1;    ///< worker threads for the trials
    TabuOptions tabu;
};

/** One initial-placement strategy. */
class Mapper
{
  public:
    virtual ~Mapper() = default;
    virtual std::string name() const = 0;
    virtual Placement map(const MapperRequest &req) const = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;

/**
 * Register a strategy under a unique name.  Returns false (and leaves
 * the registry unchanged) if the name is taken.
 */
bool registerMapper(const std::string &name, MapperFactory factory);

/** True iff a strategy of that name is registered. */
bool hasMapper(const std::string &name);

/** Instantiate a strategy; throws std::invalid_argument listing the
 * registered names when the lookup fails. */
std::unique_ptr<Mapper> makeMapper(const std::string &name);

/** Registered strategy names, sorted. */
std::vector<std::string> mapperNames();

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_MAPPER_H
