#include "sim/noise.h"

#include <stdexcept>
#include <vector>

#include "core/profile.h"
#include "core/thread_pool.h"
#include "sim/engine.h"

namespace tqan {
namespace sim {

NoiseModel
montrealNoise()
{
    // IBMQ Montreal calibration of 2021-10-29 as reported in the
    // paper (Sec. IV): average CNOT error 1.241e-2, readout error
    // 1.832e-2, T1 = 87.75 us, T2 = 72.65 us.  The single-qubit
    // error and gate durations are the device's typical values (not
    // tabulated in the paper).
    NoiseModel nm;
    nm.err2q = 0.01241;
    nm.err1q = 0.0004;
    nm.errRo = 0.01832;
    nm.t1Us = 87.75;
    nm.t2Us = 72.65;
    nm.gate2qNs = 350.0;
    nm.gate1qNs = 35.0;
    return nm;
}

void
runNoisyTrajectory(Statevector &psi, const qcir::Circuit &c,
                   const NoiseModel &nm, std::mt19937_64 &rng)
{
    if (c.numQubits() > psi.numQubits())
        throw std::invalid_argument(
            "runNoisyTrajectory: register too big");
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::uniform_int_distribution<int> pauli3(0, 2);
    std::uniform_int_distribution<int> pauli15(1, 15);
    const char axes[3] = {'X', 'Y', 'Z'};

    // Gates and injected Paulis stream through a GateStream, so 1q
    // runs and diagonal layers fuse exactly as in applyCircuit; the
    // noise draws do not consult the state, so deferring application
    // inside the stream leaves the trajectory unchanged.
    GateStream gs(psi);
    for (const auto &op : c.ops()) {
        gs.add(op);
        if (op.isTwoQubit()) {
            if (uni(rng) < nm.err2q) {
                // Uniform non-identity two-qubit Pauli: encode the
                // pair (p0, p1) in base 4, skipping (I, I).
                int code = pauli15(rng);
                int p0 = code & 3, p1 = (code >> 2) & 3;
                if (p0)
                    gs.addPauli(op.q0, axes[p0 - 1]);
                if (p1)
                    gs.addPauli(op.q1, axes[p1 - 1]);
            }
        } else {
            if (uni(rng) < nm.err1q)
                gs.addPauli(op.q0, axes[pauli3(rng)]);
        }
    }
    gs.flush();
}

double
noisyExpectationZZ(const qcir::Circuit &c, int numQubits,
                   const std::vector<graph::Edge> &edges,
                   const NoiseModel &nm, int shots,
                   std::uint64_t seed, const Engine *eng)
{
    if (shots < 1)
        throw std::invalid_argument(
            "noisyExpectationZZ: shots < 1");
    core::profile::ScopedTimer timer("sim.trajectories");

    // Shots are independent given their derived seeds, so they fan
    // out as whole forkJoin slots; per-shot statevectors stay serial.
    // A failing shot surfaces as on the serial path: the lowest
    // failing shot's exception is rethrown.
    // Per-shot derived seeds, golden-ratio strided: a plain
    // `seed ^ shot` would hand adjacent batch seeds the *same set*
    // of shot seeds in a different order (xor only permutes the low
    // bits), and the shot-order sum would come out identical.
    constexpr std::uint64_t kShotStride = 0x9E3779B97F4A7C15ull;
    std::vector<double> perShot(shots, 0.0);
    core::ThreadPool::shared().forkJoin(
        shots,
        [&](int s) {
            std::mt19937_64 rng(seed ^ (static_cast<std::uint64_t>(s) *
                                        kShotStride));
            Statevector psi(numQubits);
            runNoisyTrajectory(psi, c, nm, rng);
            perShot[s] = psi.expectationZZ(edges);
        },
        eng ? eng->jobs() : 1);

    // Shot-order summation: identical for every worker count.
    double acc = 0.0;
    for (double e : perShot)
        acc += e;
    return acc / shots;
}

double
noisyExpectationZZ(const qcir::Circuit &c, int numQubits,
                   const std::vector<graph::Edge> &edges,
                   const NoiseModel &nm, int shots,
                   std::mt19937_64 &rng)
{
    return noisyExpectationZZ(c, numQubits, edges, nm, shots, rng(),
                              nullptr);
}

} // namespace sim
} // namespace tqan
