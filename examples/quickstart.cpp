/**
 * @file
 * Quickstart: compile one Trotter step of a 12-qubit NNN Heisenberg
 * chain onto IBMQ Montreal with tqan (the 2QAN reproduction), print
 * the compilation metrics against the NoMap baseline, and emit the
 * CNOT-decomposed hardware circuit.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <random>

#include "core/compiler.h"
#include "core/metrics.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"

using namespace tqan;

int
main()
{
    // 1. A 2-local Hamiltonian: Heisenberg chain with next-nearest-
    //    neighbour couplings, coefficients sampled U(0, pi).
    std::mt19937_64 rng(2022);
    ham::TwoLocalHamiltonian h = ham::nnnHeisenberg(12, rng);
    std::printf("Hamiltonian: %zu two-qubit terms on %d qubits\n",
                h.pairs().size(), h.numQubits());

    // 2. One Trotter step as an application-level circuit.
    qcir::Circuit step = ham::trotterStep(h, /*t=*/1.0);

    // 3. Compile to IBMQ Montreal (27 qubits, CNOT gate set).
    core::CompilerOptions opt;
    opt.seed = 7;
    core::TqanCompiler compiler(device::montreal27(), opt);
    core::CompileResult result = compiler.compile(step);

    std::printf("placement found by Tabu-QAP in %.1f ms\n",
                core::passSeconds(result.passTimes, "mapping") * 1e3);
    std::printf("inserted SWAPs: %d (of which dressed: %d)\n",
                result.sched.swapCount, result.sched.dressedCount);

    // 4. Metrics vs. the connectivity-unconstrained baseline.
    auto m = core::computeMetrics(result.sched, step,
                                  device::GateSet::Cnot);
    std::printf("hardware CNOTs: %d (NoMap baseline %d, overhead "
                "%d)\n",
                m.native2q, m.native2qNoMap, m.gateOverhead());
    std::printf("CNOT depth: %d (NoMap %d)\n", m.depth2q,
                m.depth2qNoMap);

    // 5. Decompose to the hardware gate set.
    qcir::Circuit hw =
        decomp::decomposeToCnot(result.sched.deviceCircuit);
    std::printf("decomposed circuit: %d ops, %d CNOTs, depth %d\n",
                hw.size(), hw.countKind(qcir::OpKind::Cnot),
                hw.depth());
    return 0;
}
