/**
 * @file
 * One entry point for every compiler the repo implements.
 *
 * A CompilerBackend compiles one step circuit (or Hamiltonian) for a
 * target device and returns a CompileResult whose `sched` slot always
 * carries the device circuit, initial/final maps and SWAP count —
 * the 2QAN pipeline and the four baselines (qiskit_sabre, tket_like,
 * ic_qaoa, paulihedral_like) all conform.  metrics() knows how each
 * compiler class is scored in the paper (2QAN results are measured on
 * the schedule; dependency-respecting baselines get the
 * FullPeepholeOptimise-style same-pair merging before counting).
 *
 * Backends live in one immutable core::Registry (core/registry.h)
 * keyed by name, so bench harnesses and tools select compilers with
 * a string instead of per-compiler branching.  A new backend is one
 * more entry in the table in backend.cpp.
 */

#ifndef TQAN_CORE_BACKEND_H
#define TQAN_CORE_BACKEND_H

#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/metrics.h"
#include "ham/hamiltonian.h"

namespace tqan {
namespace core {

/** One compilation request, consumed by any backend. */
struct CompileJob
{
    /** The step circuit to compile (required by every backend except
     * paulihedral_like, which synthesizes from the Hamiltonian). */
    const qcir::Circuit *step = nullptr;
    /** Pauli-term view; required by paulihedral_like only. */
    const ham::TwoLocalHamiltonian *hamiltonian = nullptr;
    /** Trotter-step time (Hamiltonian-consuming backends). */
    double time = 1.0;
    /** options.seed fully determines each backend's randomness:
     * same seed, same result, for every backend.  Only backends
     * whose info().seedSensitive is true (the 2qan pipelines'
     * mapper trials, qiskit_sabre's random initial placement, and
     * paulihedral_like, which routes through SABRE) actually draw
     * from it; the rest are deterministic and ignore the seed
     * entirely (verified by tests/core/test_backend_seed.cpp).
     * Every other field (mapper, router, trials, jobs, noise map,
     * ablation toggles) steers the 2QAN pipelines only and is
     * ignored by the baselines. */
    CompilerOptions options;
};

/**
 * Capability descriptor of a backend, so harnesses can filter on
 * what a compiler supports instead of switching on its name (the
 * ic_qaoa diagonal-only precondition used to be a hard-coded name
 * check in verify/fuzz.cpp; now it is this API).
 */
struct BackendInfo
{
    /** Only compiles diagonal (ZZ-interaction) Hamiltonians; feed it
     * QAOA/Ising workloads only. */
    bool diagonalOnly = false;
    /** Draws from options.seed (distinct seeds may produce distinct
     * circuits); false means fully deterministic, the seed is
     * ignored.  Pinned by tests/core/test_backend_seed.cpp. */
    bool seedSensitive = true;
    /** Routing strategy the backend compiles with: a core router
     * registry name ("greedy", "rrr") for the 2QAN pipelines, a
     * descriptive label for the baselines. */
    std::string router;
};

class CompilerBackend
{
  public:
    virtual ~CompilerBackend() = default;
    virtual std::string name() const = 0;

    /** Capability descriptor; the base default is a randomized,
     * unrestricted backend. */
    virtual BackendInfo info() const { return BackendInfo{}; }

    /** Compile one job; throws std::invalid_argument when the job
     * lacks the inputs this backend needs. */
    virtual CompileResult compile(const CompileJob &job,
                                  const device::Topology &topo)
        const = 0;

    /** Score a result of this backend against the step circuit's
     * NoMap baseline, the way the paper scores this compiler class. */
    virtual CompilationMetrics metrics(const CompileResult &res,
                                       const qcir::Circuit &step,
                                       device::GateSet gs) const;
};

bool hasBackend(const std::string &name);

/** Shared instance by name; throws std::invalid_argument listing the
 * registered names when the lookup fails. */
const CompilerBackend &backendByName(const std::string &name);

/** Registered backend names, sorted. */
std::vector<std::string> backendNames();

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_BACKEND_H
