/**
 * @file
 * Factories for the quantum computers evaluated in the paper and for
 * generic lattice families.
 *
 * Paper Fig. 1 devices:
 *  - Google Sycamore, 54 qubits, SYC (also CZ in the appendix),
 *  - IBMQ Montreal, 27 qubits, CNOT,
 *  - Rigetti Aspen, 16 qubits, iSWAP (also CZ in the appendix).
 * Table III additionally compiles to IBMQ Manhattan (65-qubit
 * heavy-hex), generated here by heavyHex(5).
 */

#ifndef TQAN_DEVICE_DEVICES_H
#define TQAN_DEVICE_DEVICES_H

#include "device/topology.h"

namespace tqan {
namespace device {

/** @name Generic families. @{ */
/** rows x cols square lattice. */
Topology grid(int rows, int cols);
/** Open chain of n qubits. */
Topology line(int n);
/** n-cycle. */
Topology ring(int n);
/** Complete coupling graph (the paper's "NoMap" baseline device). */
Topology allToAll(int n);
/** 3D lattice nx x ny x nz (used for Heisenberg-3D in Table III). */
Topology cube(int nx, int ny, int nz);
/**
 * IBM heavy-hex lattice of code distance d (odd); d = 5 gives the
 * 65-qubit layout of IBMQ Manhattan / Brooklyn.
 */
Topology heavyHex(int d);
/** @} */

/** @name Paper devices. @{ */
/**
 * Google Sycamore, 54 qubits.  The public device is a square lattice
 * drawn diagonally; we reproduce it as the 54-node diamond-shaped
 * square-lattice patch with the same node count, degree-4 bulk and
 * diameter class (see DESIGN.md substitution table).
 */
Topology sycamore54();
/** IBMQ Montreal: the published 27-qubit Falcon coupling list. */
Topology montreal27();
/** Rigetti Aspen: two octagons joined by two couplers, 16 qubits. */
Topology aspen16();
/** IBMQ Manhattan, 65-qubit heavy-hex (= heavyHex(5)). */
Topology manhattan65();
/** @} */

/** @name Name-based lookup (CLI / sweep-spec surface). @{ */
/**
 * Device by spec string: "montreal" | "sycamore" | "aspen" |
 * "manhattan" | "line:N" | "ring:N" | "grid:RxC" | "heavyhex:D"
 * (heavyHex(D), D odd >= 3).  N, R, C and D are plain positive
 * decimals: no sign, no blanks.
 * @throws std::invalid_argument on an unknown name or malformed
 *         parameters.
 */
Topology deviceByName(const std::string &name);

/** Gate set by name: "cnot" | "cz" | "iswap" | "syc".
 * @throws std::invalid_argument on an unknown name. */
GateSet gateSetByName(const std::string &name);

/** The native gate set the paper compiles a device to (sycamore ->
 * Syc, aspen -> ISwap, everything else -> Cnot). */
GateSet defaultGateSet(const std::string &deviceName);
/** @} */

} // namespace device
} // namespace tqan

#endif // TQAN_DEVICE_DEVICES_H
