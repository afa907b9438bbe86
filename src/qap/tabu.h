/**
 * @file
 * Tabu-search QAP solver (paper Sec. III-A; Glover's tabu search,
 * Taillard's robust variant).
 *
 * Works on the *padded* problem: the permutation ranges over all
 * device qubits; circuit qubits beyond n are dummies with zero flow.
 * Moves exchange the locations of two facilities; a move is tabu if
 * it reassigns a facility to a location it occupied recently, with
 * the usual aspiration criterion (always accept a new global best).
 *
 * The kernel follows Taillard's robust taboo search memoization: a
 * DeltaTable caches the cost change of every candidate exchange, so
 * a neighborhood scan is a flat O(n * nloc) table read, and an
 * accepted move refreshes only the entries whose inputs changed
 * (O(nloc * deg) for the bounded-degree flows of 2-local
 * Hamiltonians) instead of re-deriving every delta from the sparse
 * flow.  On integral data (hop distances) refreshed entries are
 * algebraic updates of exact integers — O(1) each, plus one sparse
 * flow pass per moved facility; otherwise each is re-evaluated in the
 * summation order of a fresh computation.  Either
 * way results are bit-identical to the naive rescanning kernel — the
 * golden sweep is the oracle.
 *
 * The scan is two-level from n * nloc = DeltaTable::kRowMinsFrom on
 * (device scale; paper instances stay below): the table also keeps
 * each row's exact minimum, and once a first admissible move is found
 * the scan jumps over every row whose minimum is not below the best
 * delta so far.  Such a row holds no strictly better entry, so the
 * selected move is the one a full scan picks.
 *
 * Setup is paid once per search, not once per trial: bestOfTabu()
 * analyses the instance once (QapInstance: flow CSR, symmetry and
 * exactness checks; for a topology's hop matrix the distance side
 * comes from Topology::hopDiameter() instead of a scan).
 *
 * The trials run in parallel on core::ThreadPool::shared(), the
 * process-wide pool, with the calling thread taking part.  The caller
 * allocates one TabuWorkspace (DeltaTable and tabu array) per worker
 * slot before dispatch and frees them after the join; each slot
 * reuses its workspace across the trials it runs.  Allocating on the
 * caller, and mapping the two large buffers
 * (core::MappedAllocator), keeps peak memory flat: when each worker
 * thread allocated its own workspace, glibc's per-thread malloc
 * arenas kept the freed tables (peak RSS on the `device_scale`
 * benchmark rose from 46.6 to about 65 MiB, and MALLOC_ARENA_MAX=1
 * removed the excess); with several compiles forking trials at once
 * (the `service` benchmark), each caller's arena kept its slots'
 * tables until they were mapped.
 */

#ifndef TQAN_QAP_TABU_H
#define TQAN_QAP_TABU_H

#include <cstdint>
#include <random>
#include <vector>

#include "core/mapped_allocator.h"
#include "qap/qap.h"

namespace tqan {
namespace qap {

struct TabuOptions
{
    int maxIters = 2000;      ///< neighborhood scans
    int tabuLowMul = 9;       ///< tabu tenure ~ U[0.9n, 1.1n] style
    int tabuHighMul = 11;
    /** Stop early after this many non-improving iterations. */
    int stallLimit = 500;
};

/**
 * The distance side of the integral path's test, one pass row by
 * row: the largest |d| when every entry is an integer, the matrix is
 * symmetric and its diagonal zero; NaN otherwise.  (An infinite
 * distance passes here and fails the caller's 2^53 bound.)
 */
double exactMaxDistance(const linalg::FlatMatrix &dist);

/**
 * The read-only analysis of one QAP instance: the sparse flow, the
 * distance matrix and the flags that choose the kernel's paths.
 *
 * Lifetime and sharing: bestOfTabu() builds one per search, before any
 * trial starts, and every trial and worker thread then reads it
 * through a const reference.  Construction is its only write, so
 * concurrent readers need no lock.  `dist` must outlive the instance
 * (it is read in place); `flow` is read only by the constructor, which
 * copies its nonzeros.
 *
 * Construction makes one dense pass over flow (the CSR build) and,
 * when the flow is symmetric and integral, one over dist, row by row;
 * the flow checks and cost() are O(nnz(flow)).
 */
class QapInstance
{
  public:
    /** flow is n x n, dist is nloc x nloc with n <= nloc. */
    QapInstance(const linalg::FlatMatrix &flow,
                const linalg::FlatMatrix &dist);

    /** Against the topology's hop matrix, whose distance side of the
     * exactness test is known from Topology::hopDiameter(), so the
     * O(nloc^2) scan of exactMaxDistance() is skipped. */
    QapInstance(const linalg::FlatMatrix &flow,
                const device::Topology &topo);

    int facilities() const { return n_; }
    int locations() const { return nloc_; }
    const linalg::FlatMatrix &dist() const { return *dist_; }

    /** CSR view of the nonzero flow: facility i's partners and flows
     * are nzCol()/nzVal()[nzOff()[i] .. nzOff()[i+1]), partners
     * ascending. */
    const int *nzOff() const { return nzOff_.data(); }
    const int *nzCol() const { return nzCol_.data(); }
    const double *nzVal() const { return nzVal_.data(); }

    /** Flow is symmetric (DeltaTable::memoizable()). */
    bool flowSymmetric() const { return flowSymmetric_; }
    /** The integral fast path holds (DeltaTable::exactArithmetic()). */
    bool exactArithmetic() const { return exact_; }
    /** n * nloc >= DeltaTable::kRowMinsFrom. */
    bool keepsRowMins() const { return keepMins_; }

    /** QAP objective of the first n entries of `perm`, summed as
     * qapCostMatrix() does (i ascending, then j > i ascending), so
     * the bits match it. */
    double cost(const std::vector<int> &perm) const;

  private:
    /** maxDist >= 0 is exactMaxDistance(dist), known; < 0 scans. */
    QapInstance(const linalg::FlatMatrix &flow,
                const linalg::FlatMatrix &dist, double maxDist);

    const linalg::FlatMatrix *dist_;
    int n_ = 0;
    int nloc_ = 0;
    bool flowSymmetric_ = false;
    bool exact_ = false;
    bool keepMins_ = false;
    std::vector<int> nzOff_, nzCol_;
    std::vector<double> nzVal_;
};

/**
 * Memoized move-evaluation table of the Taillard-style kernel.
 *
 * delta(a, b) caches the cost change of exchanging the locations of
 * facilities a and b (a < b) under the permutation it was last
 * synchronized with.  update() must be called after every applied
 * exchange; only entries whose inputs changed (pairs touching the
 * moved facilities or their flow partners) are refreshed.
 *
 * Row minima (tables of n * nloc >= kRowMinsFrom entries):
 * rowMins()[a] is the exact minimum of row a's entries after reset()
 * and after every update().  update() writes every row it changes
 * in one pass: a moved facility's or flow partner's row is rewritten
 * whole and takes its minimum after the pass; any other row takes
 * all of its single column writes together and then settles its
 * minimum once (lowered to the smallest written value, or recomputed
 * when a write overwrote the entry that held it).  Smaller tables
 * keep no minima and rowMins() is null.
 *
 * Bit-identity contract: a cached value always equals what
 * evaluate() returns bit-for-bit.  There are two paths.  When every
 * flow and distance entry is an integer, the distance diagonal is
 * zero and the flow/distance magnitudes keep every intermediate below
 * 2^53 (the hop-distance QAP — the paper's case), every delta is an
 * exactly-representable integer.  Then flow-partner rows take
 * Taillard's O(1) algebraic correction, and both moved facilities'
 * deltas against every real facility come from a per-facility cost
 * vector and one fused sparse flow pass over their two gathered
 * distance rows (O(1) per entry); both are *exact*, hence bit-equal
 * to re-evaluation.  Otherwise (noise-aware placement) every stale
 * entry is re-evaluated in evaluate()'s summation order, so the
 * guarantee holds there too.
 *
 * Public for the kernel's property tests; not a stable API.
 */
class DeltaTable
{
  public:
    /** Smallest n * nloc that keeps row minima.  Their upkeep in
     * update() costs more than the skip saves at paper scale (at most
     * 50 x 54): kept at every size, the `paper` benchmark workload's
     * median latency rose 18-24% (tabuSearchQapMatrix gives the
     * runs).  Timed per search, keeping them pays from filled 10 x 10
     * grids on. */
    static constexpr long kRowMinsFrom = 8192;

    /** The instance must outlive the table.  Only reset() and
     * update() write the table, so one table serves any number of
     * searches over its instance in turn. */
    explicit DeltaTable(const QapInstance &inst);

    /** Rebuild every entry for a new permutation (O(n*nloc*deg);
     * on the integral path row by row from the per-facility cost
     * vector, as update() rebuilds a moved facility's row). */
    void reset(const std::vector<int> &perm);

    /** Cached cost change of exchanging facilities a < b. */
    double delta(int a, int b) const
    {
        return table_[static_cast<size_t>(a) * nloc_ + b];
    }

    /** One row of cached deltas (entries b > a are meaningful). */
    const double *row(int a) const
    {
        return table_.data() + static_cast<size_t>(a) * nloc_;
    }

    /** The n row minima, contiguous: entry a is the minimum of
     * row(a)[b] over b > a (NaN entries ignored; +inf for an empty
     * row).  Exact, not a bound, after reset() and every update().
     * Null below kRowMinsFrom. */
    const double *rowMins() const
    {
        return keepMins_ ? rowMin_.data() : nullptr;
    }

    /** Fresh evaluation against `perm`, bypassing the cache. */
    double evaluate(const std::vector<int> &perm, int a, int b) const;

    /** Refresh the entries invalidated by an exchange of facilities
     * u != v, given in either order (either or both may be dummies);
     * `perm` is the permutation *after* the exchange. */
    void update(const std::vector<int> &perm, int u, int v);

    int facilities() const { return n_; }
    int locations() const { return nloc_; }

    /** True when the integral fast path is active: both matrices
     * symmetric and integral, a zero distance diagonal, and
     * 8 * max_x sum_j |f_xj| * max |d| < 2^53. */
    bool exactArithmetic() const { return exact_; }

    /** update() is only sound for symmetric flow (stale entries are
     * inferred from the moved facilities' flow rows); the kernel
     * falls back to per-scan evaluation otherwise. */
    bool memoizable() const { return flowSymmetric_; }

  private:
    const linalg::FlatMatrix *dist_;
    int n_ = 0;
    int nloc_ = 0;
    bool keepMins_ = false;  ///< n * nloc >= kRowMinsFrom
    bool exact_ = false;  ///< integral data: O(1) updates are exact
    bool flowSymmetric_ = false;
    /** The instance's flow CSR (QapInstance::nzOff()). */
    const int *nzOff_, *nzCol_;
    const double *nzVal_;
    /** n_ x nloc_, entries b > a used; mapped, like the tabu array,
     * so a concurrent search's table leaves no malloc arena holding
     * its memory (core/mapped_allocator.h). */
    std::vector<double, core::MappedAllocator<double>> table_;
    std::vector<int> touched_;   ///< scratch: facilities to refresh
    std::vector<char> inSet_;    ///< scratch membership flags
    std::vector<double> g_;      ///< scratch: flow-difference column
    std::vector<double> h_;      ///< scratch: distance differences
    /** Scratch, one slot per moved facility s (integral path):
     * s_[x] = cost of s's flow were s at location x (all zero for a
     * dummy), t_[j] = d[perm s][perm j] for real j, and md_[m] =
     * delta(s, m) for real m. */
    std::vector<double> s_[2], t_[2], md_[2];
    /** Scratch: flow partners with g != 0 (ascending) and their g, h
     * -- the columns a move changes in the untouched rows. */
    std::vector<int> pc_;
    std::vector<double> pg_, ph_;
    /** Exact path: cm_[x] = sum_{j in N(x)} f_xj d[perm x][perm j]. */
    std::vector<double> cm_;
    std::vector<double> rowMin_;  ///< see rowMins()

    struct ColumnWrites;

    double facilityCost(const std::vector<int> &perm, int x) const;
    void recomputeRowMin(int a);
    void settleRowMin(int a, const ColumnWrites &w);
    template <class Write> void writeUntouchedRows(Write write);
    void updateIntegral(const std::vector<int> &perm, int u, int v);
    void loadMovedFacility(const std::vector<int> &perm, int slot,
                           int s);
    void movedDeltas(const std::vector<int> &perm, int a, int b,
                     int from);
    void writeMovedRow(const std::vector<int> &perm, int slot, int s);
    void correctPartnerRow(int w, int u, int v);
};

/**
 * Solve the QAP for an initial placement.
 *
 * @param flow n x n circuit-qubit interaction counts.
 * @param topo device (provides the distance matrix and location
 *        count N >= n).
 * @param rng seeded generator; the paper runs the randomized mapping
 *        5 times and keeps the best result.
 * @return placement of the n circuit qubits (injective into N).
 */
Placement tabuSearchQap(const linalg::FlatMatrix &flow,
                        const device::Topology &topo,
                        std::mt19937_64 &rng,
                        const TabuOptions &opt = TabuOptions());

/**
 * Generic-cost variant: solve the QAP against an arbitrary (double)
 * location-distance matrix, e.g. the noise-aware distances of
 * device::NoiseMap (the paper's Sec. VII future-work direction).
 */
Placement
tabuSearchQapMatrix(const linalg::FlatMatrix &flow,
                    const linalg::FlatMatrix &dist,
                    std::mt19937_64 &rng,
                    const TabuOptions &opt = TabuOptions());

/**
 * Best-of-trials against an arbitrary location-distance matrix (the
 * hop matrix, or device::NoiseMap's noise-aware distances), with the
 * trials distributed over up to `jobs` workers of
 * core::ThreadPool::shared(), the calling thread included.  `jobs`
 * 0 (the default) takes as many as the pool offers; either way at
 * most one per trial, and only as many as the trials need: a worker
 * count that finishes in the same number of rounds as more workers
 * would (5 trials: 3 workers, not 4).
 *
 * Trial t always runs on its own generator seeded `seed + t` and ties
 * are broken towards the lowest trial index, so the result is
 * bit-identical for every `jobs` value (jobs == 1 is the sequential
 * reference), and equal to the best of tabuSearchQapMatrix() runs
 * with those generators.  One QapInstance is built for the whole
 * call and shared read-only by the workers; the caller allocates one
 * workspace per worker slot.  An exception from a trial is rethrown
 * here once the other trials have finished.
 */
Placement bestOfTabu(const linalg::FlatMatrix &flow,
                     const linalg::FlatMatrix &dist,
                     std::uint64_t seed, int trials = 5,
                     const TabuOptions &opt = TabuOptions(),
                     int jobs = 0);

/** Hop-distance form: the same search against topo.hopDistances(),
 * with the distance-side facts taken from the topology. */
Placement bestOfTabu(const linalg::FlatMatrix &flow,
                     const device::Topology &topo, std::uint64_t seed,
                     int trials = 5,
                     const TabuOptions &opt = TabuOptions(),
                     int jobs = 0);

} // namespace qap
} // namespace tqan

#endif // TQAN_QAP_TABU_H
