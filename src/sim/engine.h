/**
 * @file
 * Simulation execution engine: the fixed block decomposition every
 * parallel simulator operation runs on, fanned out over the shared
 * pool (core/thread_pool.h).
 *
 * Two kinds of parallelism (paper-scale fidelity evaluation needs
 * both):
 *
 *  - Block parallelism: a gate kernel or reduction splits its index
 *    space into fixed-size blocks of disjoint amplitudes and runs
 *    them as forkJoin slots.  The block grid depends only on the
 *    problem size — never on the worker count — and reductions
 *    combine the per-block partial sums in block order, so every
 *    result is bit-identical for any `jobs` value (the per-amplitude
 *    arithmetic is the same; only which thread executes a block
 *    changes).
 *
 *  - Shot parallelism: noisy trajectories are independent given
 *    their per-shot derived seeds (golden-ratio strided,
 *    `seed ^ (shot * 0x9E3779B97F4A7C15)` — see noise.cpp for why
 *    plain xor is not enough), so noisyExpectationZZ fans whole
 *    shots out the same way.
 *
 * `jobs` caps the threads one operation occupies; an Engine owns no
 * threads, so Engine(1) is exactly the serial simulator and any
 * Engine may be used from any thread, concurrently, and from inside
 * a forkJoin slot.
 */

#ifndef TQAN_SIM_ENGINE_H
#define TQAN_SIM_ENGINE_H

#include <cstdint>
#include <functional>

#include "linalg/matrix.h"

namespace tqan {
namespace sim {

/** Composite indices per block task.  16 Ki amplitudes = 256 KiB of
 * Cx: big enough to amortize dispatch, small enough to stay
 * cache-resident and balance across workers.  Fixed — the block grid
 * is part of the determinism contract, not a tuning knob. */
constexpr std::uint64_t kBlockSize = std::uint64_t(1) << 14;

/**
 * How widely the simulator parallelizes.  Pass one to Statevector
 * for block-parallel kernels/reductions, or to noisyExpectationZZ
 * for shot-parallel trajectories.  Results never depend on `jobs`.
 */
class Engine
{
  public:
    explicit Engine(int jobs = 1);

    /** Most threads one operation runs on, the caller included
     * (1 = serial execution). */
    int jobs() const { return jobs_; }

    /**
     * Run fn(begin, end) over [0, count) split into kBlockSize
     * blocks.  Blocks run concurrently when jobs() > 1; fn must
     * only touch state disjoint across blocks.
     */
    void forBlocks(
        std::uint64_t count,
        const std::function<void(std::uint64_t, std::uint64_t)> &fn)
        const;

    /**
     * Blocked reduction: per-block partial sums combined in block
     * order, so the value is independent of the worker count and
     * equal to the serial blocked sum bit for bit.
     */
    double sumBlocks(
        std::uint64_t count,
        const std::function<double(std::uint64_t, std::uint64_t)>
            &fn) const;

    /** Complex-valued variant of sumBlocks (overlaps). */
    linalg::Cx sumBlocksCx(
        std::uint64_t count,
        const std::function<linalg::Cx(std::uint64_t, std::uint64_t)>
            &fn) const;

  private:
    int jobs_;
};

/** @name Nullable-engine helpers.
 * The serial paths (eng == nullptr) walk the identical block grid,
 * so attaching an engine never changes a result. @{ */
void forBlocks(
    const Engine *eng, std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)> &fn);
double sumBlocks(
    const Engine *eng, std::uint64_t count,
    const std::function<double(std::uint64_t, std::uint64_t)> &fn);
linalg::Cx sumBlocksCx(
    const Engine *eng, std::uint64_t count,
    const std::function<linalg::Cx(std::uint64_t, std::uint64_t)>
        &fn);
/** @} */

} // namespace sim
} // namespace tqan

#endif // TQAN_SIM_ENGINE_H
