/**
 * @file
 * Paper Fig. 10: application performance <C>/C_min of QAOA-REG-3
 * with p = 1, 2, 3 layers compiled to IBMQ Montreal, under the
 * calibrated Montreal noise model (the hardware substitute described
 * in DESIGN.md).
 *
 * For each instance and compiler we report:
 *  - the noiseless ratio at the fixed angles (exact statevector for
 *    n <= 16; for larger n the instance-averaged n = 16 value, valid
 *    because the p <= 3 light cone makes the edge expectation size-
 *    independent on random 3-regular graphs),
 *  - the ESP of the compiled circuit (gate counts + depth + T1/T2),
 *  - the modelled noisy ratio  ESP * noiseless,
 *  - for n <= 8, a stochastic-Pauli trajectory cross-check on the
 *    CNOT-decomposed compiled circuit.
 *
 * Expected shape (paper): 2QAN's curve is highest everywhere and
 * reaches the random-guess level (0) at much larger n than t|ket>,
 * Qiskit and IC-QAOA.
 *
 * Instances follow the sweep seeding convention; each compile seed
 * folds in core::fnv1a64 of the compiler name, so the rows are the
 * same under every standard library.  Run: bench_fig10_fidelity
 * [--exact] (exact statevector ratios for every n).
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>

#include "core/backend.h"
#include "core/hash.h"
#include "core/qaoa_layers.h"
#include "core/sweep.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "sim/qaoa_eval.h"

using namespace tqan;

namespace {

struct Compiled
{
    qcir::Circuit device;     // full p-layer circuit with H prep
    qap::Placement initial;   // logical -> device at t = 0
    qap::Placement final_map; // logical -> device at measurement
};

/** Prepend the |+>^n layer under the initial map. */
qcir::Circuit
withPrep(const qcir::Circuit &c, const qap::Placement &initial)
{
    qcir::Circuit out(c.numQubits());
    for (int dq : initial)
        out.add(qcir::Op::u1q(dq, linalg::hadamard()));
    out.append(c);
    return out;
}

Compiled
compileTqan(const graph::Graph &g,
            const std::vector<ham::QaoaAngles> &angles,
            const device::Topology &topo, std::uint64_t seed)
{
    auto layer1 = ham::trotterStep(
        ham::qaoaLayerHamiltonian(g, angles[0]), 1.0);
    core::CompileJob job;
    job.step = &layer1;
    job.options.seed = seed;
    core::CompileResult res =
        core::backendByName("2qan").compile(job, topo);
    Compiled c;
    c.initial = res.sched.initialMap;
    c.final_map = angles.size() % 2 == 1 ? res.sched.finalMap
                                         : res.sched.initialMap;
    c.device = withPrep(core::tqanMultiLayerCircuit(res, angles),
                        c.initial);
    return c;
}

Compiled
compileBaseline(const std::string &name, const graph::Graph &g,
                const std::vector<ham::QaoaAngles> &angles,
                const device::Topology &topo, std::uint64_t seed)
{
    qcir::Circuit full = core::qaoaMultiLayerStep(g, angles);
    core::CompileJob job;
    job.step = &full;
    job.options.seed = seed;
    auto r = core::backendByName(name).compile(job, topo);
    Compiled c;
    c.initial = r.sched.initialMap;
    c.final_map = r.sched.finalMap;
    c.device = withPrep(r.sched.deviceCircuit, c.initial);
    return c;
}

double
evaluate(const Compiled &c, const graph::Graph &g,
         const sim::NoiseModel &nm, double noiseless, double *esp_out,
         double *traj_out, std::uint64_t seed)
{
    // ESP from the CNOT-expanded circuit.
    qcir::Circuit expanded =
        decomp::expandForMetrics(c.device, device::GateSet::Cnot);
    auto cost = sim::tallyCircuit(expanded, g.numNodes());
    double e = sim::esp(cost, nm);
    *esp_out = e;

    *traj_out = std::nan("");
    if (g.numNodes() <= 8) {
        // Trajectory cross-check on the decomposed circuit.
        qcir::Circuit hw = decomp::decomposeToCnot(c.device);
        std::vector<int> qmap;
        qcir::Circuit compact = sim::compactCircuit(hw, qmap);
        if (compact.numQubits() <= 14) {
            std::vector<graph::Edge> edges;
            for (const auto &[u, v] : g.edges())
                edges.push_back({qmap[c.final_map[u]],
                                 qmap[c.final_map[v]]});
            int cmin = g.numEdges() - 2 * ham::maxCut(g);
            std::mt19937_64 rng(seed);
            *traj_out = sim::trajectoryRatio(compact, edges, cmin,
                                             nm, 60, rng);
        }
    }
    return e * noiseless;
}

} // namespace

int
main(int argc, char **argv)
{
    bool exact_all = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--exact")
            exact_all = true;

    std::printf("experiment,benchmark,device,compiler,nqubits,"
                "instance,p,noiseless,esp,ratio_model,ratio_traj\n");

    device::Topology topo = device::montreal27();
    sim::NoiseModel nm = sim::montrealNoise();
    const char *compilers[] = {"2QAN", "qiskit_sabre", "tket_like",
                               "ic_qaoa"};

    // Light-cone reference ratios from n = 16 (per p).
    std::map<int, double> lightcone;
    for (int p = 1; p <= 3; ++p) {
        double acc = 0.0;
        for (int inst = 0; inst < 5; ++inst) {
            std::mt19937_64 rng(core::sweepInstanceSeed(
                core::Benchmark::QaoaReg3, 16, 40 + inst));
            auto g = graph::randomRegularGraph(16, 3, rng);
            acc += sim::noiselessRatio(g, ham::qaoaFixedAngles(p));
        }
        lightcone[p] = acc / 5.0;
    }

    for (int n = 4; n <= 22; n += 2) {
        for (int inst = 0; inst < 10; ++inst) {
            std::mt19937_64 rng(core::sweepInstanceSeed(
                core::Benchmark::QaoaReg3, n, inst));
            auto g = graph::randomRegularGraph(n, 3, rng);
            for (int p = 1; p <= 3; ++p) {
                auto angles = ham::qaoaFixedAngles(p);
                double noiseless =
                    (n <= 16 || exact_all)
                        ? sim::noiselessRatio(g, angles)
                        : lightcone[p];

                for (const char *name : compilers) {
                    std::uint64_t seed =
                        core::sweepInstanceSeed(
                            core::Benchmark::QaoaReg3, n,
                            1000 * p + inst) ^
                        core::fnv1a64(name);
                    Compiled c =
                        std::string(name) == "2QAN"
                            ? compileTqan(g, angles, topo, seed)
                            : compileBaseline(name, g, angles, topo,
                                              seed);
                    double esp = 0.0, traj = 0.0;
                    double model = evaluate(c, g, nm, noiseless,
                                            &esp, &traj, seed);
                    std::printf("fig10,QAOA_REG3,montreal27,%s,%d,"
                                "%d,%d,%.4f,%.4f,%.4f,%.4f\n",
                                name, n, inst, p, noiseless, esp,
                                model, traj);
                    std::fflush(stdout);
                }
            }
        }
    }
    return 0;
}
