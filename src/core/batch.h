/**
 * @file
 * Batch compilation engine.
 *
 * The paper's results are sweeps: every figure and table compiles
 * many (benchmark x device x backend x option) combinations.  A
 * BatchCompiler executes such a batch as one forkJoin on the shared
 * pool (core/thread_pool.h), `jobs` capping its slots, and returns
 * one scored result per job, in job order.
 *
 * Determinism contract (the `--jobs` convention of the mapper
 * trials, lifted to whole compilations): every job carries its own
 * seed in `job.options.seed` and compiles on a private RNG, so the
 * results are bit-identical for any `jobs` value and any job
 * order.  Shared state is read-only; the one exception, each
 * topology's hop-distance matrix, is built exactly once by whichever
 * worker first needs it (the c-blosc2 rule — one context per thread,
 * shared data immutable — applied to compilation jobs).
 */

#ifndef TQAN_CORE_BATCH_H
#define TQAN_CORE_BATCH_H

#include <string>
#include <vector>

#include "core/backend.h"
#include "core/compiler.h"
#include "core/metrics.h"
#include "device/topology.h"

namespace tqan {
namespace core {

/** One entry of a batch: which backend compiles what for which
 * device, and how the result is scored. */
struct BatchJob
{
    /** Registered backend name ("2qan", "qiskit_sabre", ...). */
    std::string backend;
    /** Target device; non-owned, must outlive the batch run. */
    const device::Topology *topo = nullptr;
    /** Native gate set the metrics are counted in. */
    device::GateSet gateset = device::GateSet::Cnot;
    /** The compilation request (step/hamiltonian pointers non-owned;
     * options.seed is the job's whole source of randomness). */
    CompileJob job;
    /** Caller-defined label, carried into the result untouched (used
     * by sweeps to keep rows addressable after reordering). */
    std::string tag;
};

/** Outcome of one BatchJob.  Either `error` is empty and the result
 * and metrics slots are valid, or `error` holds the exception text. */
struct BatchJobResult
{
    std::string backend;
    std::string tag;
    CompileResult result;
    CompilationMetrics metrics;
    /** Wall time of this job's compile() call, in seconds. */
    double seconds = 0.0;
    std::string error;

    bool ok() const { return error.empty(); }
};

struct BatchOptions
{
    /** Most jobs compiled at once, on threads of the shared pool
     * (the calling thread included); never more than the hardware
     * threads.  Results are bit-identical for every value (each job
     * owns its seed). */
    int jobs = 1;
};

/**
 * Executes batches of compilation jobs.
 *
 * Owns no threads: constructing one is free, and every call may
 * come from any thread, concurrently.  Jobs targeting the same
 * Topology object share its hop-distance matrix.
 *
 * @code
 *   BatchCompiler bc({8});
 *   std::vector<BatchJob> jobs = ...;
 *   auto results = bc.run(jobs);   // results[i] belongs to jobs[i]
 * @endcode
 */
class BatchCompiler
{
  public:
    explicit BatchCompiler(BatchOptions opt = BatchOptions());

    const BatchOptions &options() const { return opt_; }

    /**
     * Compile every job with runOne(); results come back in job
     * order.  A job that throws (unknown backend, missing inputs)
     * yields a result with a non-empty `error` instead of aborting
     * the batch.  Fault probe: batch.dispatch, once per job.
     */
    std::vector<BatchJobResult> run(
        const std::vector<BatchJob> &jobs) const;

    /** Compile and score a single job on the calling thread (the
     * CompileService's synchronous cold path and every campaign
     * shard).  Same error convention as run(). */
    BatchJobResult runOne(const BatchJob &job) const;

  private:
    BatchOptions opt_;
};

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_BATCH_H
