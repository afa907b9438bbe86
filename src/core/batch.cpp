#include "core/batch.h"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "core/profile.h"
#include "core/thread_pool.h"
#include "robust/fault.h"

namespace tqan {
namespace core {

BatchCompiler::BatchCompiler(BatchOptions opt) : opt_(opt) {}

BatchJobResult
BatchCompiler::runOne(const BatchJob &job) const
{
    using Clock = std::chrono::steady_clock;
    BatchJobResult out;
    out.backend = job.backend;
    out.tag = job.tag;
    try {
        if (!job.topo)
            throw std::invalid_argument(
                "BatchCompiler: job.topo is null");
        const CompilerBackend &backend = backendByName(job.backend);
        auto t0 = Clock::now();
        out.result = backend.compile(job.job, *job.topo);
        out.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (profile::enabled())
            profile::record("backend." + job.backend, out.seconds);
        if (job.job.step)
            out.metrics = backend.metrics(out.result, *job.job.step,
                                          job.gateset);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

std::vector<BatchJobResult>
BatchCompiler::run(const std::vector<BatchJob> &jobs) const
{
    std::vector<BatchJobResult> results(jobs.size());
    ThreadPool::shared().forkJoin(
        static_cast<int>(jobs.size()),
        [this, &jobs, &results](int i) {
            // An injected fault costs exactly this job (its error
            // field), never the batch or sibling jobs.
            if (!robust::faultPoint("batch.dispatch")) {
                results[i] = runOne(jobs[i]);
                return;
            }
            results[i].backend = jobs[i].backend;
            results[i].tag = jobs[i].tag;
            results[i].error = "injected fault: batch.dispatch";
        },
        opt_.jobs);
    return results;
}

} // namespace core
} // namespace tqan
