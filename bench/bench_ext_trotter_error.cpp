/**
 * @file
 * Extension experiment (paper Sec. VII future work): how does the
 * operator-order freedom interact with the Trotter error?
 *
 * The paper compiles the first Trotter step and reverses the
 * two-qubit order for even steps (noting this mimics second-order
 * Trotterization), and cites randomized product formulas as future
 * work.  Here we measure the actual state error of four orderings on
 * an 8-qubit NNN Heisenberg model as a function of the step count r:
 *
 *   fixed        : same term order every step (plain first order)
 *   reversed     : 2QAN's forward/backward alternation
 *   second_order : the symmetric formula of Eq. 2
 *   randomized   : fresh uniformly random order per step
 *
 * Error = 1 - |<psi_exact | psi_formula>| with psi_exact from a very
 * fine reference formula.  Expected shape: reversed ~ second-order
 * (both quadratically better than fixed), randomized between.
 */

#include <cstdio>
#include <random>

#include "ham/models.h"
#include "ham/trotter.h"
#include "sim/statevector.h"

using namespace tqan;

namespace {

sim::Statevector
runCircuit(const qcir::Circuit &c, int n)
{
    sim::Statevector psi(n);
    // Nontrivial product start state.
    for (int q = 0; q < n; q += 2)
        psi.applyPauli(q, 'X');
    for (int q = 0; q < n; ++q)
        psi.apply1q(q, linalg::ry(0.3 + 0.1 * q));
    psi.applyCircuit(c);
    return psi;
}

} // namespace

int
main()
{
    std::printf("experiment,benchmark,ordering,r,state_error\n");

    const int n = 8;
    const double t = 0.7;
    std::mt19937_64 rng(0x7207);
    auto h = ham::nnnHeisenberg(n, rng);

    sim::Statevector exact =
        runCircuit(ham::trotterCircuit(h, t, 1024, false), n);

    for (int r : {2, 4, 8, 16, 32}) {
        auto err = [&](const qcir::Circuit &c) {
            return 1.0 - runCircuit(c, n).fidelityWith(exact);
        };
        std::printf("ext_trotter,NNN_Heisenberg,fixed,%d,%.3e\n", r,
                    err(ham::trotterCircuit(h, t, r, false)));
        std::printf("ext_trotter,NNN_Heisenberg,reversed,%d,%.3e\n",
                    r, err(ham::trotterCircuit(h, t, r, true)));
        std::printf(
            "ext_trotter,NNN_Heisenberg,second_order,%d,%.3e\n", r,
            err(ham::secondOrderTrotterCircuit(h, t, r)));
        std::mt19937_64 r2(77);
        std::printf(
            "ext_trotter,NNN_Heisenberg,randomized,%d,%.3e\n", r,
            err(ham::randomizedTrotterCircuit(h, t, r, r2)));
        std::fflush(stdout);
    }
    return 0;
}
