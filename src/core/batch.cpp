#include "core/batch.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/profile.h"
#include "robust/fault.h"

namespace tqan {
namespace core {

BatchCompiler::BatchCompiler(BatchOptions opt)
    : opt_(opt), pool_(new ThreadPool(opt.jobs))
{
}

BatchJobResult
BatchCompiler::runOne(const BatchJob &job) const
{
    return run(std::vector<BatchJob>{job}).front();
}

std::vector<BatchJobResult>
BatchCompiler::run(const std::vector<BatchJob> &jobs) const
{
    using Clock = std::chrono::steady_clock;

    std::vector<BatchJobResult> results(jobs.size());

    // Resolve backends up front, on the calling thread: the registry
    // is locked here once instead of contended from every worker, and
    // workers then touch only their own job slot.
    std::vector<const CompilerBackend *> backends(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        results[i].backend = jobs[i].backend;
        results[i].tag = jobs[i].tag;
        try {
            if (!jobs[i].topo)
                throw std::invalid_argument(
                    "BatchCompiler: job.topo is null");
            backends[i] = &backendByName(jobs[i].backend);
        } catch (const std::exception &e) {
            results[i].error = e.what();
        }
    }

    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!results[i].ok())
            continue;
        pool_->submit([&jobs, &results, &backends, i]() {
            const BatchJob &bj = jobs[i];
            BatchJobResult &out = results[i];
            try {
                // An injected fault costs exactly this job (its
                // error field), never the pool or sibling jobs.
                if (robust::faultPoint("batch.dispatch"))
                    throw std::runtime_error(
                        "injected fault: batch.dispatch");
                auto t0 = Clock::now();
                out.result = backends[i]->compile(bj.job, *bj.topo);
                out.seconds =
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count();
                if (profile::enabled())
                    profile::record("backend." + bj.backend,
                                    out.seconds);
                if (bj.job.step)
                    out.metrics = backends[i]->metrics(
                        out.result, *bj.job.step, bj.gateset);
            } catch (const std::exception &e) {
                out.error = e.what();
            }
        });
    }
    pool_->wait();
    return results;
}

} // namespace core
} // namespace tqan
