/**
 * @file
 * Paper Fig. 13 (appendix): 3-layer QAOA-REG-3 on IBMQ Montreal.
 * 2QAN compiles the first layer only and reverses the two-qubit
 * order for even layers (retargeting each layer's angles); the
 * baselines compile the whole 3-layer circuit.  The expected shape:
 * every compiler's overhead is ~3x its single-layer overhead, with
 * 2QAN lowest.  Prints rows in the core/sweep.h CSV schema.
 */

#include <cstdio>
#include <random>
#include <string>

#include "core/backend.h"
#include "core/metrics.h"
#include "core/qaoa_layers.h"
#include "core/sweep.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"

using namespace tqan;

namespace {

void
printRow(const std::string &device, const std::string &compiler,
         int n, int instance, const core::CompilationMetrics &m)
{
    core::SweepRow row;
    row.experiment = "fig13";
    row.benchmark = "QAOA_REG3_p3";
    row.device = device;
    row.gateset = device::gateSetName(device::GateSet::Cnot);
    row.backend = compiler;
    row.nqubits = n;
    row.instance = instance;
    row.metrics = m;
    std::printf("%s\n", core::toCsv(row).c_str());
    std::fflush(stdout);
}

core::CompileResult
compile(const std::string &backend, const qcir::Circuit &step,
        const device::Topology &topo, std::uint64_t seed)
{
    core::CompileJob job;
    job.step = &step;
    job.options.seed = seed;
    return core::backendByName(backend).compile(job, topo);
}

} // namespace

int
main()
{
    std::printf("%s\n", core::sweepCsvHeader().c_str());
    device::Topology topo = device::montreal27();
    auto angles = ham::qaoaFixedAngles(3);
    const auto seedOf = [](int n, int instance) {
        return core::sweepInstanceSeed(core::Benchmark::QaoaReg3, n,
                                       instance);
    };

    for (int n = 4; n <= 22; n += 2) {
        for (int inst = 0; inst < 10; ++inst) {
            std::mt19937_64 rng(seedOf(n, inst));
            auto g = graph::randomRegularGraph(n, 3, rng);

            // Logical 3-layer circuit (for baselines and NoMap).
            qcir::Circuit full = core::qaoaMultiLayerStep(g, angles);

            // 2QAN: compile layer 1, chain scaled fwd/rev copies.
            auto layer1 = ham::trotterStep(
                ham::qaoaLayerHamiltonian(g, angles[0]), 1.0);
            core::CompileResult res =
                compile("2qan", layer1, topo, seedOf(n, 500 + inst));
            qcir::Circuit tq3 = core::tqanMultiLayerCircuit(res, angles);
            auto mt = core::computeCircuitMetrics(
                tq3, full, device::GateSet::Cnot);
            mt.swaps = 3 * res.sched.swapCount;
            mt.dressed = 3 * res.sched.dressedCount;
            printRow(topo.name(), "2QAN", n, inst, mt);

            // Baselines on the full 3-layer circuit.
            for (const char *b :
                 {"qiskit_sabre", "tket_like", "ic_qaoa"}) {
                const core::CompilerBackend &be =
                    core::backendByName(b);
                auto mb = be.metrics(
                    compile(b, full, topo, seedOf(n, 600 + inst)),
                    full, device::GateSet::Cnot);
                printRow(topo.name(), b, n, inst, mb);
            }
        }
    }
    return 0;
}
