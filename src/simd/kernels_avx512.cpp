/**
 * @file
 * AVX-512 kernels (4 complex doubles per 512-bit vector), with a
 * 2-wide AVX2-style inner stage for short runs/segments so the
 * qlo==1 two-qubit case still vectorizes.
 *
 * Compiled with -mavx512f -mavx512dq only.  Same numerical contract
 * as kernels_avx2.cpp: no FMA anywhere, per-lane products and sums
 * exactly match the scalar oracle (addsub is emulated with
 * sub+masked-add, which rounds each lane once like the scalar code);
 * only the sumZZPacked reduction reassociates and is covered by the
 * documented ulp bound.
 */

#include "simd/kernels_isa.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace tqan {
namespace simd {
namespace detail {

namespace {

using std::uint64_t;

inline int
pop64(uint64_t x)
{
    return __builtin_popcountll(x);
}

inline void
cmulTail(double *p, double cr, double ci)
{
    const double ar = p[0], ai = p[1];
    p[0] = ar * cr - ai * ci;
    p[1] = ar * ci + ai * cr;
}

/** addsub emulation: even lanes t0-t1, odd lanes t0+t1 — one
 * rounding per lane, identical to _mm256_addsub_pd semantics. */
inline __m512d
addsub512(__m512d t0, __m512d t1)
{
    return _mm512_mask_add_pd(_mm512_sub_pd(t0, t1), 0xAA, t0, t1);
}

// Lane shuffles use their full-mask (0xFF) _mm512_mask_* forms: the
// unmasked intrinsics start from _mm512_undefined_pd(), which GCC 12
// reports as -Wmaybe-uninitialized.  The results are identical.
inline __m512d
cmulDup512(__m512d a, __m512d crdup, __m512d cidup)
{
    const __m512d t0 = _mm512_mul_pd(a, crdup);
    const __m512d sw = _mm512_mask_permute_pd(a, 0xFF, a, 0x55);
    const __m512d t1 = _mm512_mul_pd(sw, cidup);
    return addsub512(t0, t1);
}

inline __m512d
cmulVec512(__m512d a, __m512d ph)
{
    const __m512d crdup = _mm512_mask_movedup_pd(ph, 0xFF, ph);
    const __m512d cidup = _mm512_mask_permute_pd(ph, 0xFF, ph, 0xFF);
    return cmulDup512(a, crdup, cidup);
}

inline __m256d
cmulDup256(__m256d a, __m256d crdup, __m256d cidup)
{
    const __m256d t0 = _mm256_mul_pd(a, crdup);
    const __m256d sw = _mm256_shuffle_pd(a, a, 0x5);
    const __m256d t1 = _mm256_mul_pd(sw, cidup);
    return _mm256_addsub_pd(t0, t1);
}

/** Constant-phase sweep over amp[2*iBegin .. 2*iEnd): 4-wide, then
 * 2-wide, then scalar. */
inline void
sweepConst(double *amp, uint64_t iBegin, uint64_t iEnd, double cr,
           double ci)
{
    const __m512d crdup8 = _mm512_set1_pd(cr);
    const __m512d cidup8 = _mm512_set1_pd(ci);
    double *p = amp + 2 * iBegin;
    uint64_t i = iBegin;
    for (; i + 4 <= iEnd; i += 4, p += 8)
        _mm512_storeu_pd(
            p, cmulDup512(_mm512_loadu_pd(p), crdup8, cidup8));
    if (i + 2 <= iEnd) {
        const __m256d crdup4 = _mm256_set1_pd(cr);
        const __m256d cidup4 = _mm256_set1_pd(ci);
        _mm256_storeu_pd(
            p, cmulDup256(_mm256_loadu_pd(p), crdup4, cidup4));
        i += 2;
        p += 4;
    }
    for (; i < iEnd; ++i, p += 2)
        cmulTail(p, cr, ci);
}

/** Even/odd alternating-phase sweep: amp[i] *= (i odd ? o : e). */
inline void
sweepAlt(double *amp, uint64_t iBegin, uint64_t iEnd,
         const double *e, const double *o)
{
    uint64_t i = iBegin;
    double *p = amp + 2 * i;
    if (i < iEnd && (i & 1)) {
        cmulTail(p, o[0], o[1]);
        ++i;
        p += 2;
    }
    const __m256d pat4 = _mm256_set_m128d(_mm_loadu_pd(o),
                                          _mm_loadu_pd(e));
    const __m512d pat8 =
        _mm512_mask_broadcast_f64x4(_mm512_setzero_pd(), 0xFF, pat4);
    const __m512d crdup8 = _mm512_mask_movedup_pd(pat8, 0xFF, pat8);
    const __m512d cidup8 =
        _mm512_mask_permute_pd(pat8, 0xFF, pat8, 0xFF);
    for (; i + 4 <= iEnd; i += 4, p += 8)
        _mm512_storeu_pd(
            p, cmulDup512(_mm512_loadu_pd(p), crdup8, cidup8));
    if (i + 2 <= iEnd) {
        const __m256d crdup4 = _mm256_movedup_pd(pat4);
        const __m256d cidup4 = _mm256_shuffle_pd(pat4, pat4, 0xF);
        _mm256_storeu_pd(
            p, cmulDup256(_mm256_loadu_pd(p), crdup4, cidup4));
        i += 2;
        p += 4;
    }
    for (; i < iEnd; ++i, p += 2) {
        const double *c = (i & 1) ? o : e;
        cmulTail(p, c[0], c[1]);
    }
}

void
a5_apply1qDiag(double *amp, int q, const double *d01,
               uint64_t iBegin, uint64_t iEnd)
{
    if (q == 0) {
        sweepAlt(amp, iBegin, iEnd, d01, d01 + 2);
        return;
    }
    const uint64_t bit = uint64_t(1) << q;
    uint64_t i = iBegin;
    while (i < iEnd) {
        const uint64_t segEnd =
            (i & ~(bit - 1)) + bit < iEnd ? (i & ~(bit - 1)) + bit
                                          : iEnd;
        const double *d = d01 + 2 * ((i >> q) & 1);
        sweepConst(amp, i, segEnd, d[0], d[1]);
        i = segEnd;
    }
}

void
a5_apply2qDiag(double *amp, int q0, int q1, const double *d4,
               uint64_t iBegin, uint64_t iEnd)
{
    const int qlo = q0 < q1 ? q0 : q1;
    const int qhi = q0 < q1 ? q1 : q0;
    const uint64_t bit = uint64_t(1) << (qlo == 0 ? qhi : qlo);
    uint64_t i = iBegin;
    while (i < iEnd) {
        const uint64_t segEnd =
            (i & ~(bit - 1)) + bit < iEnd ? (i & ~(bit - 1)) + bit
                                          : iEnd;
        if (qlo == 0) {
            const int hi = static_cast<int>((i >> qhi) & 1);
            const int e = q0 == 0 ? (hi << 1) : hi;
            const int o = q0 == 0 ? (1 | (hi << 1)) : (hi | 2);
            sweepAlt(amp, i, segEnd, d4 + 2 * e, d4 + 2 * o);
        } else {
            const int idx =
                static_cast<int>(((i >> q0) & 1) |
                                 (((i >> q1) & 1) << 1));
            sweepConst(amp, i, segEnd, d4[2 * idx], d4[2 * idx + 1]);
        }
        i = segEnd;
    }
}

void
a5_applyPackedPhase(double *amp, const uint64_t *PL,
                    const uint64_t *PH, int nlo, const double *tab,
                    uint64_t iBegin, uint64_t iEnd)
{
    const uint64_t loMask = (uint64_t(1) << nlo) - 1;
    uint64_t i = iBegin;
    while (i < iEnd) {
        const uint64_t hiBase = i & ~loMask;
        const uint64_t segEnd =
            hiBase + loMask + 1 < iEnd ? hiBase + loMask + 1 : iEnd;
        const uint64_t phv = PH[i >> nlo];
        double *p = amp + 2 * i;
        for (; i + 4 <= segEnd; i += 4, p += 8) {
            const int c0 = pop64(PL[i & loMask] ^ phv);
            const int c1 = pop64(PL[(i + 1) & loMask] ^ phv);
            const int c2 = pop64(PL[(i + 2) & loMask] ^ phv);
            const int c3 = pop64(PL[(i + 3) & loMask] ^ phv);
            const __m256d lo4 =
                _mm256_set_m128d(_mm_loadu_pd(tab + 2 * c1),
                                 _mm_loadu_pd(tab + 2 * c0));
            const __m256d hi4 =
                _mm256_set_m128d(_mm_loadu_pd(tab + 2 * c3),
                                 _mm_loadu_pd(tab + 2 * c2));
            const __m512d lo8 = _mm512_castpd256_pd512(lo4);
            const __m512d ph =
                _mm512_mask_insertf64x4(lo8, 0xFF, lo8, hi4, 1);
            _mm512_storeu_pd(p,
                             cmulVec512(_mm512_loadu_pd(p), ph));
        }
        for (; i < segEnd; ++i, p += 2) {
            const int c = pop64(PL[i & loMask] ^ phv);
            cmulTail(p, tab[2 * c], tab[2 * c + 1]);
        }
    }
}

inline void
generic2qTail(double *p0, double *p1, double *p2, double *p3,
              const double *m)
{
    double *const pr[4] = {p0, p1, p2, p3};
    double vr[4], vi[4];
    for (int c = 0; c < 4; ++c) {
        vr[c] = pr[c][0];
        vi[c] = pr[c][1];
    }
    for (int r = 0; r < 4; ++r) {
        const double *mr = m + 8 * r;
        double sr = mr[0] * vr[0] - mr[1] * vi[0];
        double si = mr[0] * vi[0] + mr[1] * vr[0];
        for (int c = 1; c < 4; ++c) {
            sr += mr[2 * c] * vr[c] - mr[2 * c + 1] * vi[c];
            si += mr[2 * c] * vi[c] + mr[2 * c + 1] * vr[c];
        }
        pr[r][0] = sr;
        pr[r][1] = si;
    }
}

void
a5_apply2qGeneric(double *amp, int q0, int q1, const double *m,
                  uint64_t kBegin, uint64_t kEnd)
{
    const uint64_t b0 = uint64_t(1) << q0;
    const uint64_t b1 = uint64_t(1) << q1;
    const int qlo = q0 < q1 ? q0 : q1;
    const int qhi = q0 < q1 ? q1 : q0;
    const uint64_t bLo = uint64_t(1) << qlo;
    const uint64_t mlo = bLo - 1;
    const uint64_t mhi = (uint64_t(1) << (qhi - 1)) - 1;
    uint64_t k = kBegin;
    while (k < kEnd) {
        const uint64_t lo = k & mlo;
        const uint64_t runEnd =
            k - lo + bLo < kEnd ? k - lo + bLo : kEnd;
        const uint64_t base =
            ((k & ~mhi) << 2) | ((k & mhi & ~mlo) << 1) | (k & mlo);
        double *p0 = amp + 2 * base;
        double *p1 = amp + 2 * (base | b0);
        double *p2 = amp + 2 * (base | b1);
        double *p3 = amp + 2 * (base | b0 | b1);
        for (; k + 4 <= runEnd;
             k += 4, p0 += 8, p1 += 8, p2 += 8, p3 += 8) {
            const __m512d v[4] = {
                _mm512_loadu_pd(p0), _mm512_loadu_pd(p1),
                _mm512_loadu_pd(p2), _mm512_loadu_pd(p3)};
            __m512d out[4];
            for (int r = 0; r < 4; ++r) {
                const double *mr = m + 8 * r;
                __m512d s = cmulDup512(v[0], _mm512_set1_pd(mr[0]),
                                       _mm512_set1_pd(mr[1]));
                for (int c = 1; c < 4; ++c)
                    s = _mm512_add_pd(
                        s,
                        cmulDup512(v[c],
                                   _mm512_set1_pd(mr[2 * c]),
                                   _mm512_set1_pd(mr[2 * c + 1])));
                out[r] = s;
            }
            _mm512_storeu_pd(p0, out[0]);
            _mm512_storeu_pd(p1, out[1]);
            _mm512_storeu_pd(p2, out[2]);
            _mm512_storeu_pd(p3, out[3]);
        }
        if (k + 2 <= runEnd) {
            const __m256d v[4] = {
                _mm256_loadu_pd(p0), _mm256_loadu_pd(p1),
                _mm256_loadu_pd(p2), _mm256_loadu_pd(p3)};
            __m256d out[4];
            for (int r = 0; r < 4; ++r) {
                const double *mr = m + 8 * r;
                __m256d s =
                    cmulDup256(v[0], _mm256_broadcast_sd(mr),
                               _mm256_broadcast_sd(mr + 1));
                for (int c = 1; c < 4; ++c)
                    s = _mm256_add_pd(
                        s,
                        cmulDup256(v[c],
                                   _mm256_broadcast_sd(mr + 2 * c),
                                   _mm256_broadcast_sd(mr + 2 * c +
                                                       1)));
                out[r] = s;
            }
            _mm256_storeu_pd(p0, out[0]);
            _mm256_storeu_pd(p1, out[1]);
            _mm256_storeu_pd(p2, out[2]);
            _mm256_storeu_pd(p3, out[3]);
            k += 2;
            p0 += 4;
            p1 += 4;
            p2 += 4;
            p3 += 4;
        }
        for (; k < runEnd;
             ++k, p0 += 2, p1 += 2, p2 += 2, p3 += 2)
            generic2qTail(p0, p1, p2, p3, m);
    }
}

double
a5_sumZZPacked(const double *amp, const uint64_t *PL,
               const uint64_t *PH, int nlo, double nedges,
               uint64_t iBegin, uint64_t iEnd)
{
    const uint64_t loMask = (uint64_t(1) << nlo) - 1;
    __m512d acc = _mm512_setzero_pd();
    double tail = 0.0;
    uint64_t i = iBegin;
    while (i < iEnd) {
        const uint64_t hiBase = i & ~loMask;
        const uint64_t segEnd =
            hiBase + loMask + 1 < iEnd ? hiBase + loMask + 1 : iEnd;
        const uint64_t phv = PH[i >> nlo];
        const double *p = amp + 2 * i;
        for (; i + 4 <= segEnd; i += 4, p += 8) {
            const double c0 =
                nedges - 2.0 * pop64(PL[i & loMask] ^ phv);
            const double c1 =
                nedges - 2.0 * pop64(PL[(i + 1) & loMask] ^ phv);
            const double c2 =
                nedges - 2.0 * pop64(PL[(i + 2) & loMask] ^ phv);
            const double c3 =
                nedges - 2.0 * pop64(PL[(i + 3) & loMask] ^ phv);
            const __m512d a = _mm512_loadu_pd(p);
            const __m512d coeff =
                _mm512_set_pd(c3, c3, c2, c2, c1, c1, c0, c0);
            acc = _mm512_add_pd(
                acc, _mm512_mul_pd(_mm512_mul_pd(a, a), coeff));
        }
        for (; i < segEnd; ++i, p += 2) {
            const double c =
                nedges - 2.0 * pop64(PL[i & loMask] ^ phv);
            tail += (p[0] * p[0] + p[1] * p[1]) * c;
        }
    }
    double lanes[8];
    _mm512_storeu_pd(lanes, acc);
    double s = lanes[0];
    for (int l = 1; l < 8; ++l)
        s += lanes[l];
    return s + tail;
}

int
a5_scanBelow(const double *row, int begin, int end, double bound)
{
    const __m512d vb = _mm512_set1_pd(bound);
    int i = begin;
    for (; i + 8 <= end; i += 8) {
        const __mmask8 m = _mm512_cmp_pd_mask(
            _mm512_loadu_pd(row + i), vb, _CMP_LT_OQ);
        if (m)
            return i +
                   __builtin_ctz(static_cast<unsigned>(m));
    }
    for (; i < end; ++i)
        if (row[i] < bound)
            return i;
    return end;
}

} // namespace

const KernelTable &
avx512Table()
{
    static const KernelTable t = {
        a5_apply1qDiag,    a5_apply2qDiag, a5_applyPackedPhase,
        a5_apply2qGeneric, a5_sumZZPacked, a5_scanBelow,
    };
    return t;
}

} // namespace detail
} // namespace simd
} // namespace tqan

#endif // __AVX512F__ && __AVX512DQ__
