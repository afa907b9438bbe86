/**
 * @file
 * Numerical template decomposition of two-qubit unitaries.
 *
 * Reproduces the role of the numerical synthesis approach the paper
 * uses for non-CNOT hardware gates (its reference [47], Lao et al.,
 * "Designing calibration and expressivity-efficient instruction sets
 * for quantum computing"): fix a template
 *
 *   (w1 x w0) G (u1^{(k)} x u0^{(k)}) G ... G (v1 x v0)
 *
 * with k applications of the native gate G and parameterized
 * single-qubit unitaries, then minimize the phase-invariant Frobenius
 * distance to the target with random-restart adaptive pattern search.
 *
 * Kept as a test oracle: test_numerical.cpp checks the analytic
 * minimal counts of decomp/native_count.h against it.  Nothing in the
 * library synthesizes with it, so it is linked into the test binaries
 * only, never into libtqan.
 */

#ifndef TQAN_DECOMP_NUMERICAL_H
#define TQAN_DECOMP_NUMERICAL_H

#include <optional>
#include <random>
#include <vector>

#include "device/topology.h"
#include "qcir/circuit.h"

namespace tqan {
namespace decomp {

struct NumericalOptions
{
    int restarts = 12;       ///< random restarts
    int iters = 400;         ///< pattern-search sweeps per restart
    double tol = 1e-6;       ///< accepted phase-invariant distance
};

/**
 * Result: ops implementing the target on (q0, q1) using exactly k
 * native gates, or nullopt if the optimizer did not reach tol (which
 * for k >= nativeCount(u) indicates an optimizer failure, not
 * impossibility).
 */
std::optional<std::vector<qcir::Op>>
numericalDecompose(const linalg::Mat4 &target, int q0, int q1,
                   device::GateSet gs, int k, std::mt19937_64 &rng,
                   const NumericalOptions &opt = NumericalOptions());

/**
 * Distance of the best k-gate template fit (no op emission); used by
 * tests to confirm the analytic counts: the (k-1)-gate fit must fail
 * and the k-gate fit succeed.
 */
double bestTemplateFit(const linalg::Mat4 &target, device::GateSet gs,
                       int k, std::mt19937_64 &rng,
                       const NumericalOptions &opt = NumericalOptions());

} // namespace decomp
} // namespace tqan

#endif // TQAN_DECOMP_NUMERICAL_H
