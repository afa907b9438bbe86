/**
 * @file
 * Targeting a custom device: define your own coupling graph and
 * native gate set, then compare 2QAN's placement strategies and the
 * baseline compilers on it.  Demonstrates the retargetability claim
 * of the paper (all permutation-aware passes run before gate
 * decomposition, so any gate set works).
 *
 * Build & run:  ./build/examples/custom_device
 */

#include <cstdio>
#include <random>

#include "baseline/sabre.h"
#include "baseline/tket_like.h"
#include "core/compiler.h"
#include "core/metrics.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"

using namespace tqan;

int
main()
{
    // A hypothetical 18-qubit "ladder with rungs every two" device.
    graph::Graph g(18);
    for (int i = 0; i + 1 < 9; ++i) {
        g.addEdge(i, i + 1);
        g.addEdge(9 + i, 9 + i + 1);
    }
    for (int i = 0; i < 9; i += 2)
        g.addEdge(i, 9 + i);
    device::Topology topo("ladder18", g);
    std::printf("device %s: %d qubits, %d couplers\n",
                topo.name().c_str(), topo.numQubits(),
                static_cast<int>(topo.edges().size()));

    std::mt19937_64 rng(13);
    auto h = ham::nnnXY(14, rng);
    qcir::Circuit step = ham::trotterStep(h, 1.0);

    std::printf("\nXY(14) on ladder18, iSWAP gate set\n");
    std::printf("%-22s %6s %8s %8s %8s\n", "configuration", "swaps",
                "dressed", "iSWAPs", "depth2q");

    const struct
    {
        const char *mapper;
        const char *label;
    } strategies[] = {{"tabu", "2QAN (tabu QAP)"},
                      {"anneal", "2QAN (annealed QAP)"},
                      {"greedy", "2QAN (greedy place)"},
                      {"line", "2QAN (line place)"}};
    for (const auto &s : strategies) {
        core::CompilerOptions opt;
        opt.mapper = s.mapper;
        opt.seed = 99;
        core::TqanCompiler comp(topo, opt);
        auto res = comp.compile(step);
        auto m = core::computeMetrics(res.sched, step,
                                      device::GateSet::ISwap);
        std::printf("%-22s %6d %8d %8d %8d\n", s.label, m.swaps,
                    m.dressed, m.native2q, m.depth2q);
    }

    {
        std::mt19937_64 r2(1);
        auto unified = qcir::unifySamePairInteractions(step);
        auto r = baseline::sabreCompile(unified, topo, r2);
        auto m = core::computeCircuitMetrics(r.deviceCircuit, step,
                                             device::GateSet::ISwap);
        std::printf("%-22s %6d %8d %8d %8d\n", "SABRE (qiskit-like)",
                    r.swapCount, 0, m.native2q, m.depth2q);
        auto rt = baseline::tketLikeCompile(unified, topo, r2);
        auto mt = core::computeCircuitMetrics(
            rt.deviceCircuit, step, device::GateSet::ISwap);
        std::printf("%-22s %6d %8d %8d %8d\n", "slice (tket-like)",
                    rt.swapCount, 0, mt.native2q, mt.depth2q);
    }
    return 0;
}
