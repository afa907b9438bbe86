#include "core/backend.h"

#include <chrono>
#include <stdexcept>

#include "baseline/ic_qaoa.h"
#include "baseline/paulihedral_like.h"
#include "baseline/sabre.h"
#include "baseline/tket_like.h"
#include "core/registry.h"
#include "decomp/pass.h"

namespace tqan {
namespace core {

CompilationMetrics
CompilerBackend::metrics(const CompileResult &res,
                         const qcir::Circuit &step,
                         device::GateSet gs) const
{
    return computeMetrics(res.sched, step, gs);
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

const qcir::Circuit &
requireStep(const CompileJob &job, const char *who)
{
    if (!job.step)
        throw std::invalid_argument(std::string(who) +
                                    ": job.step is required");
    return *job.step;
}

/** Lift a BaselineResult into the common result shape. */
CompileResult
fromBaseline(baseline::BaselineResult r, double seconds)
{
    CompileResult res;
    res.sched.deviceCircuit = std::move(r.deviceCircuit);
    res.sched.initialMap = std::move(r.initialMap);
    res.sched.finalMap = std::move(r.finalMap);
    res.sched.swapCount = r.swapCount;
    res.passTimes = {{"compile", seconds}};
    return res;
}

class TqanBackend : public CompilerBackend
{
  public:
    std::string name() const override { return "2qan"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.router = "greedy";
        return b;
    }
    CompileResult compile(const CompileJob &job,
                          const device::Topology &topo) const override
    {
        TqanCompiler comp(topo, job.options);
        return comp.compile(requireStep(job, "2qan"));
    }
};

/** The 2QAN pipeline with the negotiated-congestion
 * ripup-and-reroute router (src/route/) pinned as the routing
 * strategy; everything else follows job.options like "2qan". */
class TqanRrrBackend : public CompilerBackend
{
  public:
    std::string name() const override { return "2qan_rrr"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.router = "rrr";
        return b;
    }
    CompileResult compile(const CompileJob &job,
                          const device::Topology &topo) const override
    {
        CompilerOptions opt = job.options;
        opt.router.name = "rrr";
        TqanCompiler comp(topo, opt);
        return comp.compile(requireStep(job, "2qan_rrr"));
    }
};

/**
 * Shared adapter for the circuit-consuming dependency-respecting
 * baselines: unified input (as the paper feeds them) and
 * peephole-merged output before counting, SWAPs counted pre-merge.
 */
class DagBaselineBackend : public CompilerBackend
{
  public:
    CompileResult compile(const CompileJob &job,
                          const device::Topology &topo) const override
    {
        std::mt19937_64 rng(job.options.seed);
        qcir::Circuit unified = qcir::unifySamePairInteractions(
            requireStep(job, name().c_str()));
        auto t0 = Clock::now();
        baseline::BaselineResult r = route(unified, topo, rng);
        return fromBaseline(std::move(r), secondsSince(t0));
    }

    CompilationMetrics metrics(const CompileResult &res,
                               const qcir::Circuit &step,
                               device::GateSet gs) const override
    {
        qcir::Circuit merged =
            decomp::mergeAdjacentSamePair(res.sched.deviceCircuit);
        auto m = computeCircuitMetrics(merged, step, gs);
        // Swap accounting is done before merging (merging hides
        // SWAPs inside U2q payloads, which is exactly the
        // optimization, but the figures report inserted SWAPs).
        m.swaps = res.sched.swapCount;
        m.dressed = 0;
        return m;
    }

  private:
    virtual baseline::BaselineResult
    route(const qcir::Circuit &unified, const device::Topology &topo,
          std::mt19937_64 &rng) const = 0;
};

class SabreBackend : public DagBaselineBackend
{
  public:
    std::string name() const override { return "qiskit_sabre"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.router = "sabre";
        return b;
    }

  private:
    baseline::BaselineResult
    route(const qcir::Circuit &unified, const device::Topology &topo,
          std::mt19937_64 &rng) const override
    {
        return baseline::sabreCompile(unified, topo, rng);
    }
};

class TketLikeBackend : public DagBaselineBackend
{
  public:
    std::string name() const override { return "tket_like"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.seedSensitive = false;
        b.router = "tket";
        return b;
    }

  private:
    baseline::BaselineResult
    route(const qcir::Circuit &unified, const device::Topology &topo,
          std::mt19937_64 &rng) const override
    {
        return baseline::tketLikeCompile(unified, topo, rng);
    }
};

class IcQaoaBackend : public DagBaselineBackend
{
  public:
    std::string name() const override { return "ic_qaoa"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.diagonalOnly = true;
        b.seedSensitive = false;
        b.router = "ic";
        return b;
    }

  private:
    baseline::BaselineResult
    route(const qcir::Circuit &unified, const device::Topology &topo,
          std::mt19937_64 &rng) const override
    {
        return baseline::icQaoaCompile(unified, topo, rng);
    }
};

class PaulihedralBackend : public CompilerBackend
{
  public:
    std::string name() const override { return "paulihedral_like"; }
    BackendInfo info() const override
    {
        BackendInfo b;
        b.router = "sabre";
        return b;
    }

    CompileResult compile(const CompileJob &job,
                          const device::Topology &topo) const override
    {
        if (!job.hamiltonian)
            throw std::invalid_argument(
                "paulihedral_like: job.hamiltonian is required");
        std::mt19937_64 rng(job.options.seed);
        auto t0 = Clock::now();
        auto r = baseline::paulihedralCompile(*job.hamiltonian,
                                              job.time, topo, rng);
        return fromBaseline(std::move(r), secondsSince(t0));
    }

    CompilationMetrics metrics(const CompileResult &res,
                               const qcir::Circuit &step,
                               device::GateSet gs) const override
    {
        // Block-wise kernels are counted as emitted (Table III).
        return computeCircuitMetrics(res.sched.deviceCircuit, step,
                                     gs);
    }
};

const Registry<CompilerBackend> &
backends()
{
    static const auto table =
        Registry<CompilerBackend>::of<TqanBackend, TqanRrrBackend,
                                      SabreBackend, TketLikeBackend,
                                      IcQaoaBackend,
                                      PaulihedralBackend>(
            "compiler backend");
    return table;
}

} // namespace

bool
hasBackend(const std::string &name)
{
    return backends().has(name);
}

const CompilerBackend &
backendByName(const std::string &name)
{
    return backends().get(name);
}

std::vector<std::string>
backendNames()
{
    return backends().names();
}

} // namespace core
} // namespace tqan
