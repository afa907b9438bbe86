/**
 * @file
 * Text serialization of 2-local Hamiltonians.
 *
 * Lets downstream users feed their own models to the compiler (and
 * the tools/tqanc CLI) without writing C++.  Format, one term per
 * line, '#' comments:
 *
 *     qubits 6
 *     xx 0 1 0.52        # coeff * X_0 X_1
 *     yy 0 1 1.13
 *     zz 1 2 0.77
 *     pair 2 3 0.1 0.2 0.3   # xx yy zz in one line
 *     x 4 0.35           # field coeff * X_4
 *     z 5 -0.2
 */

#ifndef TQAN_HAM_PARSER_H
#define TQAN_HAM_PARSER_H

#include <iosfwd>
#include <string>

#include "ham/hamiltonian.h"

namespace tqan {
namespace ham {

/** Parse the text format; throws std::runtime_error with a line
 * number on malformed input.  Every number must be a whole token and
 * every line carry exactly its keyword's argument count. */
TwoLocalHamiltonian parseHamiltonian(std::istream &in);
TwoLocalHamiltonian parseHamiltonian(const std::string &text);

/** Serialize back to the text format (pair lines + field lines). */
std::string formatHamiltonian(const TwoLocalHamiltonian &h);

} // namespace ham
} // namespace tqan

#endif // TQAN_HAM_PARSER_H
