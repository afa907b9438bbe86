/**
 * @file
 * Runtime CPU dispatch for the SIMD hot-path kernels.
 *
 * The model is c-blosc2's shuffle/bitshuffle tree: each ISA lives in
 * its own translation unit compiled with exactly that ISA's flags
 * (kernels_avx2.cpp with -mavx2, kernels_avx512.cpp with -mavx512f
 * -mavx512dq, kernels_neon.cpp on AArch64), the scalar kernels in
 * sim/kernels.h stay as the always-available oracle, and a function
 * table resolved once at startup picks the best implementation the
 * CPU actually supports.  The fat binary therefore runs anywhere it
 * compiles, and every SIMD path is testable against the portable one
 * on any host via the TQAN_SIMD override.
 *
 * Signatures are raw interleaved doubles, not linalg::Cx: the
 * per-ISA translation units include nothing but <immintrin.h> /
 * <arm_neon.h> and this repo's own plain-C declarations, so no
 * inline library code (std::complex members, vector<> internals) is
 * ever instantiated under -mavx512* flags.  That closes the classic
 * fat-binary hazard where the linker keeps the AVX-512 copy of a
 * COMDAT inline function and the binary faults on older CPUs.
 * std::complex<double> is layout-compatible with double[2]
 * ([complex.numbers.general]), so callers pass
 * reinterpret_cast<double *>(amp).
 *
 * Numerical contract (enforced by the simd-labelled test suites):
 *  - elementwise kernels (apply1qDiag, apply2qDiag, applyPackedPhase,
 *    apply2qGeneric) are BIT-IDENTICAL to the scalar oracle on every
 *    ISA.  The vector code performs exactly the scalar products and
 *    sums per lane, reordered only across commutative additions, and
 *    never uses FMA (fused rounding would diverge).
 *  - reductions (sumZZPacked) accumulate in vector lanes and so
 *    reassociate the sum; the result is deterministic for a fixed
 *    ISA but may differ from scalar by a documented bound of a few
 *    ulps per term (tests allow 1e-12 absolute on <= 2^20-term
 *    sums, far above the observed error).
 *  - scanBelow (the tabu delta table) is an exact predicate, a
 *    strict < on stored doubles, and BIT-IDENTICAL in selection
 *    order.  The tabu kernel runs it over the table's row minima
 *    too (the first level of its two-level scan), with the same
 *    predicate, so skipping a row is exact as well.
 *
 * Override: set TQAN_SIMD=scalar|avx2|avx512|neon before the first
 * kernel call to pin a path (unknown or unsupported values warn on
 * stderr and fall back to the best supported path).  Tests and the
 * bench harness use ScopedForceIsa instead, which re-points the
 * table in-process; it is not safe to toggle while kernels are in
 * flight on other threads.
 */

#ifndef TQAN_SIMD_DISPATCH_H
#define TQAN_SIMD_DISPATCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "simd/caps.h"
#include "simd/kernel_table.h"

namespace tqan {
namespace simd {

enum class Isa
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
    Neon = 3,
};

/** Lower-case name used by TQAN_SIMD, --version and profile scope
 * labels: "scalar" | "avx2" | "avx512" | "neon". */
const char *isaName(Isa isa);

/** Parse an isaName() string; false (and *out untouched) when the
 * name is unknown. */
bool parseIsa(const std::string &name, Isa *out);

/** ISA paths usable on this host: compiled in AND supported by the
 * CPU.  Always contains Isa::Scalar, in dispatch-preference order
 * (scalar first, best last). */
const std::vector<Isa> &availableIsas();

bool isaAvailable(Isa isa);

/** The resolved table.  First call probes the CPU and honours
 * TQAN_SIMD; later calls are a single atomic load. */
const KernelTable &kernels();

/** The ISA kernels() currently resolves to. */
Isa activeIsa();

/** Per-family resolved ISA (a table may fill only some entries and
 * fall back per-entry down the preference chain).  Families in table
 * order: diag1q, diag2q, packedphase, generic2q, sumzz, scan. */
struct DispatchReport
{
    Isa diag1q, diag2q, packedPhase, generic2q, sumZZ, scan;
};
DispatchReport dispatchReport();

/** Multi-line human-readable summary for --version: CPU caps line,
 * active ISA line, then one line per kernel family. */
std::string dispatchSummary();

/** One-line form for --profile headers and bench JSON:
 * e.g. "avx512". */
const char *activeIsaName();

/** "base[isa]" with the ACTIVE isa, interned so the pointer stays
 * valid for core::profile::ScopedTimer (which keys on const char*).
 * Returns e.g. "qap.tabu[avx2]". */
const char *profileLabel(const char *base);

/**
 * Test/bench hook: re-point the dispatch table at a specific ISA for
 * this object's lifetime (restores the previous choice on
 * destruction).  Throws std::invalid_argument if the ISA is not
 * available on this host.  NOT safe to construct/destruct while
 * kernels are executing on other threads.
 */
class ScopedForceIsa
{
  public:
    explicit ScopedForceIsa(Isa isa);
    ~ScopedForceIsa();
    ScopedForceIsa(const ScopedForceIsa &) = delete;
    ScopedForceIsa &operator=(const ScopedForceIsa &) = delete;

  private:
    Isa prev_;
};

} // namespace simd
} // namespace tqan

#endif // TQAN_SIMD_DISPATCH_H
