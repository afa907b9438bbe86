/**
 * @file
 * Verbatim pre-engine statevector simulator (src/sim/statevector.*
 * and noise.* as they were before the simulation engine): full-2^n
 * branch-skip loops, generic Mat2/Mat4 multiplies for every gate,
 * serial rng-sequential trajectories, linear-scan sampling.
 *
 * Kept for one job, as a test oracle: the kernel tests
 * (test_kernels.cpp, also run once per SIMD ISA) and the engine
 * tests pin every specialized, fused and strided kernel path
 * against these kernels.  It is linked into the test binaries only,
 * never into libtqan.
 *
 * Do not optimize this file; its value is being the old code.
 */

#ifndef TQAN_SIM_REFERENCE_H
#define TQAN_SIM_REFERENCE_H

#include <cstdint>
#include <random>
#include <vector>

#include "graph/graph.h"
#include "qcir/circuit.h"
#include "sim/noise.h"

namespace tqan {
namespace sim {
namespace ref {

/** The pre-engine Statevector, kernel for kernel. */
class RefStatevector
{
  public:
    explicit RefStatevector(int n);

    int numQubits() const { return n_; }
    std::uint64_t dim() const { return std::uint64_t(1) << n_; }

    linalg::Cx amplitude(std::uint64_t basis) const
    {
        return amp_[basis];
    }
    double probability(std::uint64_t basis) const;
    double norm() const;

    void apply1q(int q, const linalg::Mat2 &u);
    void apply2q(int q0, int q1, const linalg::Mat4 &u);
    void applyOp(const qcir::Op &op);
    void applyCircuit(const qcir::Circuit &c);
    void applyPauli(int q, char axis);

    double expectationZZ(const std::vector<graph::Edge> &edges) const;
    double fidelityWith(const RefStatevector &other) const;
    std::uint64_t sample(std::mt19937_64 &rng) const;

  private:
    int n_;
    std::vector<linalg::Cx> amp_;
};

/** Pre-engine trajectory runner (same Pauli-injection scheme). */
void refRunNoisyTrajectory(RefStatevector &psi,
                           const qcir::Circuit &c,
                           const NoiseModel &nm,
                           std::mt19937_64 &rng);

/** Pre-engine Monte-Carlo <sum ZZ>: serial shots off one rng. */
double refNoisyExpectationZZ(const qcir::Circuit &c, int numQubits,
                             const std::vector<graph::Edge> &edges,
                             const NoiseModel &nm, int shots,
                             std::mt19937_64 &rng);

} // namespace ref
} // namespace sim
} // namespace tqan

#endif // TQAN_SIM_REFERENCE_H
