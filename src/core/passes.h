/**
 * @file
 * The standard 2QAN pipeline passes (paper Fig. 2), as PassManager
 * building blocks:
 *
 *   unify      -> circuit-unitary unifying (Sec. III-C)
 *   mapping    -> initial placement via a qap::Mapper registry
 *                 strategy (Sec. III-A)
 *   routing    -> permutation-aware routing + SWAP unifying
 *                 (Sec. III-B/C)
 *   scheduling -> hybrid ALAP or generic order-respecting scheduler
 *                 (Sec. III-D)
 *
 * Each factory returns a self-contained Pass; TqanCompiler assembles
 * the default pipeline from these, and callers can interleave their
 * own passes for custom pipelines.
 */

#ifndef TQAN_CORE_PASSES_H
#define TQAN_CORE_PASSES_H

#include <memory>
#include <string>

#include "core/pass.h"
#include "core/router.h"
#include "qap/tabu.h"

namespace tqan {
namespace core {

/** Merge same-pair Interact ops into single unitaries. */
std::unique_ptr<Pass> makeUnifyPass();

/**
 * Initial placement through the qap::Mapper registry strategy
 * `mapper` ("tabu", "anneal", "greedy", "line" or "identity"; see
 * qap::mapperNames()).  Randomized strategies derive per-trial seeds
 * from the context seed and run their trials on up to
 * CompileContext::jobs threads; the result is independent of the
 * thread count.
 */
std::unique_ptr<Pass>
makeMappingPass(std::string mapper, int trials = 5,
                qap::TabuOptions tabu = qap::TabuOptions());

/**
 * Routing through the core::Router registry strategy `opt.name`
 * ("greedy" is the paper's Algorithm 1, "rrr" the negotiated-
 * congestion ripup-and-reroute router; see core::routerNames()).
 * Dressed-SWAP merging is applied when `opt.unifySwaps`.
 */
std::unique_ptr<Pass> makeRoutingPass(RouterOptions opt = {});

/** Hybrid ALAP (Alg. 2) or the generic order-respecting ablation
 * scheduler. */
std::unique_ptr<Pass> makeSchedulingPass(bool hybrid = true);

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_PASSES_H
