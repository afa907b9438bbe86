#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.h"

namespace tqan {
namespace sim {

Engine::Engine(int jobs) : jobs_(std::max(1, jobs)) {}

namespace {

inline std::uint64_t
blockCount(std::uint64_t count)
{
    return (count + kBlockSize - 1) / kBlockSize;
}

} // namespace

void
Engine::forBlocks(
    std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)> &fn)
    const
{
    const std::uint64_t nblocks = blockCount(count);
    if (jobs_ <= 1 || nblocks < 2) {
        sim::forBlocks(nullptr, count, fn);
        return;
    }
    core::ThreadPool::shared().forkJoin(
        static_cast<int>(nblocks),
        [&fn, count](int b) {
            const std::uint64_t lo = std::uint64_t(b) * kBlockSize;
            fn(lo, std::min(count, lo + kBlockSize));
        },
        jobs_);
}

double
Engine::sumBlocks(
    std::uint64_t count,
    const std::function<double(std::uint64_t, std::uint64_t)> &fn)
    const
{
    const std::uint64_t nblocks = blockCount(count);
    if (jobs_ <= 1 || nblocks < 2)
        return sim::sumBlocks(nullptr, count, fn);
    std::vector<double> part(nblocks, 0.0);
    forBlocks(count, [&fn, &part](std::uint64_t lo, std::uint64_t hi) {
        part[lo / kBlockSize] = fn(lo, hi);
    });
    double s = 0.0;
    for (double p : part)
        s += p;
    return s;
}

linalg::Cx
Engine::sumBlocksCx(
    std::uint64_t count,
    const std::function<linalg::Cx(std::uint64_t, std::uint64_t)>
        &fn) const
{
    const std::uint64_t nblocks = blockCount(count);
    if (jobs_ <= 1 || nblocks < 2)
        return sim::sumBlocksCx(nullptr, count, fn);
    std::vector<linalg::Cx> part(nblocks, linalg::Cx(0.0, 0.0));
    forBlocks(count, [&fn, &part](std::uint64_t lo, std::uint64_t hi) {
        part[lo / kBlockSize] = fn(lo, hi);
    });
    linalg::Cx s(0.0, 0.0);
    for (const linalg::Cx &p : part)
        s += p;
    return s;
}

void
forBlocks(
    const Engine *eng, std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)> &fn)
{
    if (eng) {
        eng->forBlocks(count, fn);
        return;
    }
    for (std::uint64_t lo = 0; lo < count; lo += kBlockSize)
        fn(lo, std::min(count, lo + kBlockSize));
}

double
sumBlocks(
    const Engine *eng, std::uint64_t count,
    const std::function<double(std::uint64_t, std::uint64_t)> &fn)
{
    if (eng)
        return eng->sumBlocks(count, fn);
    // Same block grid as the parallel path: per-block partials
    // combined in order, so serial and parallel sums are bit-equal.
    double s = 0.0;
    for (std::uint64_t lo = 0; lo < count; lo += kBlockSize)
        s += fn(lo, std::min(count, lo + kBlockSize));
    return s;
}

linalg::Cx
sumBlocksCx(
    const Engine *eng, std::uint64_t count,
    const std::function<linalg::Cx(std::uint64_t, std::uint64_t)>
        &fn)
{
    if (eng)
        return eng->sumBlocksCx(count, fn);
    linalg::Cx s(0.0, 0.0);
    for (std::uint64_t lo = 0; lo < count; lo += kBlockSize)
        s += fn(lo, std::min(count, lo + kBlockSize));
    return s;
}

} // namespace sim
} // namespace tqan
