/**
 * @file
 * Paper Table III: circuit-size comparison with Paulihedral.
 *
 *  - Heisenberg-1D / 2D / 3D, 30 qubits, all-to-all connectivity
 *    (chain / 6x5 grid / 5x3x2 lattice interaction graphs -- the
 *    edge counts 29 / 49 / 59 reproduce the paper's 2QAN CNOT
 *    figures 87 / 147 / 177 at 3 CNOTs per pair).
 *  - QAOA-REG-4 / 8 / 12, 20 qubits, 10 instances, on the 65-qubit
 *    heavy-hex IBMQ Manhattan.
 *
 * Columns: CNOT count and all-gate depth for the Paulihedral-like
 * block-wise compiler and for 2QAN.
 */

#include <cstdio>
#include <random>

#include "core/backend.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/trotter.h"

using namespace tqan;

namespace {

/** 2QAN's CNOT-set metrics of one step. */
core::CompilationMetrics
tqanMetrics(const qcir::Circuit &step, const device::Topology &topo,
            std::uint64_t seed)
{
    const core::CompilerBackend &b = core::backendByName("2qan");
    core::CompileJob job;
    job.step = &step;
    job.options.seed = seed;
    return b.metrics(b.compile(job, topo), step, device::GateSet::Cnot);
}

void
runHeisenberg(const char *name, const graph::Graph &interaction)
{
    std::mt19937_64 rng(0xface);
    auto h = ham::heisenbergOnGraph(interaction, rng);
    device::Topology topo = device::allToAll(30);

    // Paulihedral-like: block kernels in lexicographic order.
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    core::CompileJob job;
    job.hamiltonian = &h;
    job.options.seed = 1;
    const auto &pl = core::backendByName("paulihedral_like");
    auto mp = pl.metrics(pl.compile(job, topo), step,
                         device::GateSet::Cnot);

    // 2QAN.
    auto mt = tqanMetrics(step, topo, 2);

    std::printf("table3,%s,alltoall30,CNOT,paulihedral_like,30,0,"
                "%d,%d\n",
                name, mp.native2q, mp.depthAll);
    std::printf("table3,%s,alltoall30,CNOT,2QAN,30,0,%d,%d\n", name,
                mt.native2q, mt.depthAll);
    std::fflush(stdout);
}

void
runQaoaReg(int degree)
{
    device::Topology topo = device::manhattan65();
    long pl_gates = 0, pl_depth = 0, tq_gates = 0, tq_depth = 0;
    const int instances = 10;
    for (int inst = 0; inst < instances; ++inst) {
        std::mt19937_64 rng(0xabc0 + degree * 131 + inst);
        auto g = graph::randomRegularGraph(20, degree, rng);
        ham::TwoLocalHamiltonian h(20);
        for (const auto &[u, v] : g.edges())
            h.addPair(u, v, 0.0, 0.0, 0.35);
        for (int q = 0; q < 20; ++q)
            h.addField(q, ham::Axis::X, 0.2);

        qcir::Circuit step = ham::trotterStep(h, 1.0);
        core::CompileJob job;
        job.hamiltonian = &h;
        job.options.seed = inst;
        const auto &plb = core::backendByName("paulihedral_like");
        auto mp = plb.metrics(plb.compile(job, topo), step,
                              device::GateSet::Cnot);
        auto mt = tqanMetrics(step, topo, 77 + inst);
        pl_gates += mp.native2q;
        pl_depth += mp.depthAll;
        tq_gates += mt.native2q;
        tq_depth += mt.depthAll;
    }
    std::printf("table3,QAOA_REG%d,manhattan65,CNOT,"
                "paulihedral_like,20,avg,%ld,%ld\n",
                degree, pl_gates / instances, pl_depth / instances);
    std::printf("table3,QAOA_REG%d,manhattan65,CNOT,2QAN,20,avg,"
                "%ld,%ld\n",
                degree, tq_gates / instances, tq_depth / instances);
    std::fflush(stdout);
}

} // namespace

int
main()
{
    std::printf("experiment,benchmark,device,gateset,compiler,"
                "nqubits,instance,cnots,depth\n");

    graph::Graph chain(30);
    for (int i = 0; i + 1 < 30; ++i)
        chain.addEdge(i, i + 1);
    runHeisenberg("Heisenberg_1D", chain);
    runHeisenberg("Heisenberg_2D", device::grid(6, 5).coupling());
    runHeisenberg("Heisenberg_3D", device::cube(5, 3, 2).coupling());

    runQaoaReg(4);
    runQaoaReg(8);
    runQaoaReg(12);
    return 0;
}
