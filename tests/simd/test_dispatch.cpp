/**
 * @file
 * Tests of the SIMD runtime-dispatch subsystem itself: CPU-caps
 * probing, ISA naming/parsing, preference ordering, the TQAN_SIMD
 * override (asserted via the introspection API when the simd-label
 * ctest entries set the variable), ScopedForceIsa swap/restore, the
 * interned profile labels, and a property test of the vectorized
 * scanBelow kernel against the plain loop.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "simd/caps.h"
#include "simd/dispatch.h"

using namespace tqan;
using namespace tqan::simd;

TEST(SimdDispatch, ScalarIsAlwaysAvailableAndListedFirst)
{
    const std::vector<Isa> &isas = availableIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), Isa::Scalar);
    for (Isa isa : isas)
        EXPECT_TRUE(isaAvailable(isa)) << isaName(isa);
    // Preference order is strictly increasing, so no duplicates and
    // best-last.
    for (size_t i = 1; i < isas.size(); ++i)
        EXPECT_LT(static_cast<int>(isas[i - 1]),
                  static_cast<int>(isas[i]));
}

TEST(SimdDispatch, CapsAreConsistentWithAvailability)
{
    const Caps &caps = hostCaps();
    EXPECT_FALSE(caps.str().empty());
#if defined(__x86_64__) || defined(_M_X64)
    EXPECT_FALSE(caps.neon);
#endif
    // An ISA can only be available if the CPU reports the feature
    // (the converse needs the TU compiled in, so it is not an iff).
    if (isaAvailable(Isa::Avx2)) {
        EXPECT_TRUE(caps.avx2);
    }
    if (isaAvailable(Isa::Avx512)) {
        EXPECT_TRUE(caps.avx512f && caps.avx512dq);
    }
    if (isaAvailable(Isa::Neon)) {
        EXPECT_TRUE(caps.neon);
    }
}

TEST(SimdDispatch, IsaNamesRoundTripThroughParse)
{
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon}) {
        Isa back = Isa::Scalar;
        EXPECT_TRUE(parseIsa(isaName(isa), &back)) << isaName(isa);
        EXPECT_EQ(back, isa);
    }
    Isa out = Isa::Avx2;
    EXPECT_FALSE(parseIsa("bogus", &out));
    EXPECT_FALSE(parseIsa("", &out));
    EXPECT_FALSE(parseIsa("AVX2", &out));  // names are lower-case
    EXPECT_EQ(out, Isa::Avx2);             // *out untouched on failure
}

TEST(SimdDispatch, ActiveIsaHonoursTqanSimdEnv)
{
    // The simd-labelled ctest entries run this whole binary once per
    // ISA with TQAN_SIMD set; this assertion is what proves (e.g.)
    // TQAN_SIMD=scalar actually pins the scalar path.  Without the
    // variable, dispatch must have resolved to the best available.
    const char *env = std::getenv("TQAN_SIMD");
    Isa want;
    if (env && parseIsa(env, &want) && isaAvailable(want))
        EXPECT_EQ(activeIsa(), want) << env;
    else
        EXPECT_EQ(activeIsa(), availableIsas().back());
}

TEST(SimdDispatch, ScopedForceSwapsAndRestores)
{
    const Isa before = activeIsa();
    {
        ScopedForceIsa force(Isa::Scalar);
        EXPECT_EQ(activeIsa(), Isa::Scalar);
        // With the whole table forced scalar, every kernel family
        // must report scalar — the introspection the dispatch
        // override test of the issue asks for.
        DispatchReport rep = dispatchReport();
        for (Isa family :
             {rep.diag1q, rep.diag2q, rep.packedPhase,
              rep.generic2q, rep.sumZZ, rep.scan})
            EXPECT_EQ(family, Isa::Scalar);
    }
    EXPECT_EQ(activeIsa(), before);

    // Nested forcing restores in LIFO order.
    {
        ScopedForceIsa outer(availableIsas().back());
        {
            ScopedForceIsa inner(Isa::Scalar);
            EXPECT_EQ(activeIsa(), Isa::Scalar);
        }
        EXPECT_EQ(activeIsa(), availableIsas().back());
    }
    EXPECT_EQ(activeIsa(), before);
}

TEST(SimdDispatch, ForcingAnUnavailableIsaThrows)
{
    for (Isa isa : {Isa::Avx2, Isa::Avx512, Isa::Neon}) {
        if (isaAvailable(isa))
            continue;
        EXPECT_THROW({ ScopedForceIsa force(isa); },
                     std::invalid_argument)
            << isaName(isa);
    }
}

TEST(SimdDispatch, SummaryNamesEveryKernelFamily)
{
    std::string s = dispatchSummary();
    for (const char *needle :
         {"cpu caps:", "simd dispatch:", "sim.diag1q", "sim.diag2q",
          "sim.packedphase", "sim.generic2q", "sim.sumzz",
          "qap.scan"})
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
    EXPECT_NE(s.find(activeIsaName()), std::string::npos);
}

TEST(SimdDispatch, ProfileLabelsAreInternedAndIsaTagged)
{
    ScopedForceIsa force(Isa::Scalar);
    const char *l1 = profileLabel("test.scope");
    EXPECT_STREQ(l1, "test.scope[scalar]");
    // Interned: the same label yields the same pointer, which is
    // what lets core::profile key scopes on const char*.
    EXPECT_EQ(l1, profileLabel("test.scope"));
}

TEST(SimdDispatch, ScanBelowMatchesPlainLoopOnEveryIsa)
{
    // Property test of the tabu neighborhood-scan kernel: first
    // index in [begin, end) with row[i] < bound, else end.  Strict
    // `<` and left-to-right order are the contract; rows mix
    // integral values (the memoized tabu case), duplicates equal to
    // the bound, and irrational noise-aware-style values.
    std::mt19937_64 rng(90210);
    std::uniform_int_distribution<int> ival(-8, 8);
    std::uniform_real_distribution<double> rval(-4.0, 4.0);
    for (int trial = 0; trial < 200; ++trial) {
        const int len = 1 + static_cast<int>(rng() % 40);
        const bool integral = trial % 2 == 0;
        std::vector<double> row(len);
        for (double &x : row)
            x = integral ? static_cast<double>(ival(rng))
                         : rval(rng);
        const double bound = integral
                                 ? static_cast<double>(ival(rng))
                                 : rval(rng);
        const int begin = static_cast<int>(rng() % len);
        const int end =
            begin + static_cast<int>(rng() % (len - begin + 1));

        int expected = end;
        for (int i = begin; i < end; ++i)
            if (row[i] < bound) {
                expected = i;
                break;
            }

        for (Isa isa : availableIsas()) {
            ScopedForceIsa force(isa);
            EXPECT_EQ(kernels().scanBelow(row.data(), begin, end,
                                          bound),
                      expected)
                << isaName(isa) << " trial=" << trial;
        }
    }
}
