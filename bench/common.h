/**
 * @file
 * Shared harness for the paper-reproduction benchmarks.
 *
 * Every figure/table binary prints machine-readable rows in the
 * core/sweep.h CSV schema:
 *
 *   experiment,benchmark,device,gateset,compiler,nqubits,instance,
 *   swaps,dressed,native2q,depth2q,depthall,
 *   native2q_nomap,depth2q_nomap,depthall_nomap
 *
 * and registers google-benchmark timings of the compile passes (the
 * paper's Sec. V-D runtime evaluation rides on the same sweeps).
 * The figure sweeps are thin sweep specs executed by the
 * BatchCompiler engine, so they are also reproducible with
 * `tqan-sweep` and share its seeding convention.
 */

#ifndef TQAN_BENCH_COMMON_H
#define TQAN_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "core/backend.h"
#include "core/compiler.h"
#include "core/metrics.h"
#include "core/qaoa_layers.h"
#include "core/sweep.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"

namespace tqan {
namespace bench {

/** Benchmark family identifiers (paper Sec. IV). */
using Family = core::Benchmark;

inline std::string
familyName(Family f)
{
    return core::benchmarkName(f);
}

using core::chainSizes;
using core::qaoaSizes;

inline std::uint64_t
instanceSeed(Family f, int n, int instance)
{
    return core::sweepInstanceSeed(f, n, instance);
}

/** One Trotter-step / one-layer circuit for a family instance. */
inline qcir::Circuit
familyStep(Family f, int n, int instance, std::mt19937_64 &rng)
{
    switch (f) {
      case Family::NnnHeisenberg:
        return ham::trotterStep(ham::nnnHeisenberg(n, rng), 1.0);
      case Family::NnnXY:
        return ham::trotterStep(ham::nnnXY(n, rng), 1.0);
      case Family::NnnIsing:
        return ham::trotterStep(ham::nnnIsing(n, rng), 1.0);
      case Family::QaoaReg3: {
        auto g = graph::randomRegularGraph(n, 3, rng);
        auto h =
            ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
        (void)instance;
        return ham::trotterStep(h, 1.0);
      }
      case Family::QaoaDense: {
        auto g = graph::erdosRenyi(n, 0.5, rng);
        auto h =
            ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
        return ham::trotterStep(h, 1.0);
      }
    }
    return qcir::Circuit(n);
}

inline void
printHeader()
{
    std::printf("%s\n", core::sweepCsvHeader().c_str());
}

inline void
printRow(const std::string &experiment, const std::string &benchmark,
         const std::string &dev, device::GateSet gs,
         const std::string &compiler, int n, int instance,
         const core::CompilationMetrics &m)
{
    core::SweepRow row;
    row.experiment = experiment;
    row.benchmark = benchmark;
    row.device = dev;
    row.gateset = device::gateSetName(gs);
    row.backend = compiler;
    row.nqubits = n;
    row.instance = instance;
    row.metrics = m;
    std::printf("%s\n", core::toCsv(row).c_str());
    std::fflush(stdout);
}

/**
 * Compile one step with any registered backend ("2qan",
 * "qiskit_sabre", "tket_like", "ic_qaoa", ...) and score it the way
 * the paper scores that compiler class.
 */
inline core::CompilationMetrics
runCompiler(const std::string &backend, const qcir::Circuit &step,
            const device::Topology &topo, device::GateSet gs,
            std::uint64_t seed, core::CompileResult *out = nullptr,
            core::CompilerOptions opt = core::CompilerOptions())
{
    const core::CompilerBackend &b = core::backendByName(backend);
    core::CompileJob job;
    job.step = &step;
    job.options = opt;
    job.options.seed = seed;
    auto res = b.compile(job, topo);
    auto m = b.metrics(res, step, gs);
    if (out)
        *out = std::move(res);
    return m;
}

/**
 * The spec behind a Fig. 7/8/9/11/12 sweep for one device: the
 * three chain models plus QAOA-REG-3, each compiled by 2QAN, the
 * t|ket>-like and the SABRE baselines (+ IC-QAOA on QAOA rows when
 * `withIcQaoa`).  `gateset` empty = the device's paper gate set.
 */
inline core::SweepSpec
figureSweepSpec(const std::string &experiment,
                const std::string &deviceName,
                const std::string &gateset, int chainCap,
                int qaoaCap, bool withIcQaoa, int qaoaInstances = 10)
{
    core::SweepSpec s;
    s.experiment = experiment;
    s.devices = {{deviceName, gateset}};
    s.backends = {"2qan", "qiskit_sabre", "tket_like"};
    if (withIcQaoa)
        s.backendsFor[Family::QaoaReg3] = {
            "2qan", "qiskit_sabre", "tket_like", "ic_qaoa"};
    s.sizes = chainSizes(chainCap);
    // The paper stops the Ising sweep at 40.
    s.sizesFor[Family::NnnIsing] =
        chainSizes(std::min(chainCap, 40));
    s.sizesFor[Family::QaoaReg3] = qaoaSizes(qaoaCap);
    s.instancesFor[Family::QaoaReg3] = qaoaInstances;
    return s;
}

/**
 * Run one figure sweep through the batch engine and print its rows;
 * compile failures go to stderr.  The batch runs in per-instance
 * chunks so rows stream out as each (benchmark, size, instance) is
 * compiled — long sweeps stay watchable and `| head` keeps working.
 */
inline void
runFigureSweep(const std::string &experiment,
               const std::string &deviceName,
               const std::string &gateset, int chainCap, int qaoaCap,
               bool withIcQaoa, int qaoaInstances = 10, int jobs = 1)
{
    core::BatchCompiler bc({jobs});
    core::ExpandedSweep ex = core::expandSweep(
        figureSweepSpec(experiment, deviceName, gateset, chainCap,
                        qaoaCap, withIcQaoa, qaoaInstances));
    auto sameInstance = [&ex](size_t a, size_t b) {
        return ex.rows[a].benchmark == ex.rows[b].benchmark &&
               ex.rows[a].nqubits == ex.rows[b].nqubits &&
               ex.rows[a].instance == ex.rows[b].instance;
    };
    for (size_t lo = 0; lo < ex.jobs.size();) {
        size_t hi = lo + 1;
        while (hi < ex.jobs.size() && sameInstance(lo, hi))
            ++hi;
        std::vector<core::BatchJob> chunk(ex.jobs.begin() + lo,
                                          ex.jobs.begin() + hi);
        auto results = bc.run(chunk);
        for (size_t i = 0; i < results.size(); ++i) {
            core::SweepRow &row = ex.rows[lo + i];
            row.metrics = results[i].metrics;
            row.seconds = results[i].seconds;
            row.error = results[i].error;
            std::printf("%s\n", core::toCsv(row).c_str());
            std::fflush(stdout);
            if (!row.ok())
                std::fprintf(stderr, "%s: %s failed: %s\n",
                             experiment.c_str(),
                             row.backend.c_str(),
                             row.error.c_str());
        }
        lo = hi;
    }
}

// Multi-layer QAOA helpers live in core/qaoa_layers.h; aliased here
// for the bench binaries.
using core::qaoaMultiLayerStep;
using core::scaleQaoaLayer;
using core::tqanMultiLayerCircuit;

} // namespace bench
} // namespace tqan

#endif // TQAN_BENCH_COMMON_H
