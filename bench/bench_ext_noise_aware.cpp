/**
 * @file
 * Extension experiment (paper Sec. VII future work): noise-aware
 * qubit placement.
 *
 * For synthetic Montreal calibrations (lognormal coupler errors
 * around the paper's reported mean), compile each workload twice --
 * noise-blind Tabu QAP vs. noise-aware Tabu QAP -- and estimate the
 * circuit success probability with the calibration-specific ESP
 * (each two-qubit unitary weighted by the error of the coupler it
 * runs on).  Expected shape: equal or fewer gates on bad couplers,
 * hence higher ESP, at (near) unchanged SWAP counts.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <random>

#include "core/compiler.h"
#include "core/sweep.h"
#include "decomp/native_count.h"
#include "device/devices.h"
#include "device/noise_map.h"

using namespace tqan;

namespace {

/** Calibration-specific gate-error ESP of a mapped circuit. */
double
calibratedGateEsp(const qcir::Circuit &device,
                  const device::NoiseMap &nm)
{
    double logp = 0.0;
    for (const auto &op : device.ops()) {
        if (!op.isTwoQubit())
            continue;
        int k = decomp::nativeCountOp(op, device::GateSet::Cnot);
        logp +=
            k * std::log(1.0 - nm.edgeError(op.q0, op.q1));
    }
    return std::exp(logp);
}

} // namespace

int
main()
{
    std::printf("experiment,benchmark,nqubits,calibration,"
                "esp_blind,esp_aware,swaps_blind,swaps_aware\n");

    device::Topology topo = device::montreal27();
    for (int n : {10, 14, 18}) {
        for (int cal = 0; cal < 5; ++cal) {
            std::mt19937_64 nrng(1000 + cal);
            auto nm = std::make_shared<device::NoiseMap>(
                device::NoiseMap::synthetic(topo, nrng));

            core::SweepUnit unit = core::buildSweepUnit(
                core::Benchmark::NnnHeisenberg, n, cal, 0);
            const qcir::Circuit &step = *unit.step;

            core::CompilerOptions blind;
            blind.seed = 55 + cal;
            core::CompilerOptions aware = blind;
            aware.noiseMap = nm;
            aware.noiseLambda = 2.0;

            core::TqanCompiler cb(topo, blind), ca(topo, aware);
            auto rb = cb.compile(step);
            auto ra = ca.compile(step);

            std::printf(
                "ext_noise,NNN_Heisenberg,%d,%d,%.4f,%.4f,%d,%d\n",
                n, cal,
                calibratedGateEsp(rb.sched.deviceCircuit, *nm),
                calibratedGateEsp(ra.sched.deviceCircuit, *nm),
                rb.sched.swapCount, ra.sched.swapCount);
            std::fflush(stdout);
        }
    }
    return 0;
}
