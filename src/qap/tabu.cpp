#include "qap/tabu.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <numeric>

#include "core/profile.h"
#include "core/thread_pool.h"
#include "simd/dispatch.h"

namespace tqan {
namespace qap {

/*
 * DeltaTable
 *
 * Bit-identity contract: every cached entry equals what evaluate()
 * returns for the current permutation, and evaluate() sums in the
 * exact order the pre-memoization kernel used (facility a's partners
 * in ascending index order, then facility b's).  update() keeps the
 * contract on two paths:
 *
 *  - Integral data (hop-distance QAPs: flows are interaction counts,
 *    distances are hop counts).  With F = max_x sum_j |f_xj| and
 *    D = max |d|, every delta and every partial sum below is an
 *    integer of magnitude <= 8 F D; QapInstance checks
 *    8 F D < 2^53, so all of it is exact in a double and any
 *    summation order gives the bits of a fresh evaluation.  Rows of
 *    flow partners of the moved pair {u,v} take Taillard's O(1)
 *    correction
 *
 *        delta'(a,b) = delta(a,b) + (g_a - g_b) * (h_b - h_a),
 *        g_x = f[x][u] - f[x][v],
 *        h_x = d[perm'[x]][perm'[u]] - d[perm'[x]][perm'[v]]
 *
 *    (perm' = post-exchange permutation; valid for {a,b} disjoint
 *    from {u,v}; |g_a - g_b| <= 2F and |h_b - h_a| <= 4D give the
 *    8 F D bound).  A moved facility s's deltas come from the
 *    per-facility costs cm_[x] = sum_{j in N(x)} f_xj d[perm x][perm j]
 *    and one gathered row t[j] = d[perm s][perm j]: for real m
 *
 *        delta(s,m) = s[perm m] - s[perm s]
 *                   + (sum_{j in N(m)} f_mj t[j] - cm_[m])
 *                   + 2 f_sm t[m]                  (m in N(s) only)
 *
 *    with s[x] = sum_{k in N(s)} f_sk d[perm k][x], which needs
 *    d[x][x] = 0 (also checked).  A moved dummy has s = 0, so its
 *    column holds the bracket alone, and a real s's dummy tail is
 *    s[perm b] - s[perm s].  update() computes the bracket for both
 *    moved facilities in one pass over the sparse flow (each m's
 *    partners read once, against both t rows), so each of the 2n
 *    deltas costs O(1) once that pass is done.  |s[x]|, |cm_[m]| and
 *    the partner sum are each <= F D and |2 f_sm t[m]| <= 2 F D, so
 *    every partial sum of delta(s,m) stays <= 6 F D, inside the
 *    8 F D bound.
 *
 *  - Non-integral data (noise-aware distances): the correction could
 *    round differently from a fresh evaluation and flip near-tie
 *    scan comparisons, so every invalidated entry is re-evaluated in
 *    evaluate() order instead.
 *
 * Either way an accepted move refreshes O((2 + deg(u) + deg(v)) *
 * nloc) entries — O(nloc * deg) for the bounded-degree interaction
 * graphs of 2-local Hamiltonians — instead of the full
 * O(n * nloc * deg) rescan of the naive kernel.  On the integral path
 * each refresh is O(1) apart from one O(nnz(flow)) sparse pass for
 * both moved facilities; on the re-evaluation path each is an
 * O(deg) evaluate() reading two distance rows.  reset() builds the
 * integral table the same way, two facilities' rows per sparse pass.
 *
 * Row order.  The stale entries are the rows of the touched
 * facilities (u, v and their flow partners) and the touched columns
 * of every other row.  A pair of two touched facilities is refreshed
 * in the row of the smaller one, so each touched real row is written
 * whole by its own pass — a partner row's pass also stores its
 * entries in the moved columns — and takes its minimum right after
 * it.  Every untouched row then takes all of its column writes in one
 * visit (writeUntouchedRows), in ascending row order; its minimum is
 * settled once per row: lowered to the smallest written value when
 * that reaches it, otherwise recomputed if a write overwrote an entry
 * equal to it.  No row is written after its minimum is taken.
 * Minima ignore NaN entries, which never pass the scan's strict <
 * either.
 */

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Running minimum that ignores NaN (x < m is false for it), so a
 * row minimum answers "does the row hold an entry < bound" exactly
 * as scanning the row with < does. */
inline double
lower(double m, double x)
{
    return x < m ? x : m;
}

} // namespace

double
exactMaxDistance(const linalg::FlatMatrix &dist)
{
    // One pass, row by row.  NaN fails integrality.
    const double fail = std::numeric_limits<double>::quiet_NaN();
    double maxDist = 0.0;
    for (int i = 0; i < dist.rows(); ++i) {
        const double *row = dist[i];
        if (row[i] != 0.0)
            return fail;
        for (int j = 0; j < dist.cols(); ++j) {
            double d = row[j];
            if (d != std::floor(d) || (j > i && d != dist[j][i]))
                return fail;
            maxDist = std::max(maxDist, std::fabs(d));
        }
    }
    return maxDist;
}

/** The column writes of one untouched row, collected so that its
 * minimum is settled once after all of them (settleRowMin). */
struct DeltaTable::ColumnWrites
{
    double min;          ///< the row's minimum before the writes
    double lo = kInf;    ///< smallest written value
    bool hitMin = false; ///< an overwritten entry equalled `min`

    void put(double &entry, double value)
    {
        hitMin |= entry == min;
        lo = lower(lo, value);
        entry = value;
    }
};

QapInstance::QapInstance(const linalg::FlatMatrix &flow,
                         const linalg::FlatMatrix &dist)
    : QapInstance(flow, dist, -1.0)
{
}

QapInstance::QapInstance(const linalg::FlatMatrix &flow,
                         const device::Topology &topo)
    : QapInstance(flow, topo.hopDistances(), topo.hopDiameter())
{
}

QapInstance::QapInstance(const linalg::FlatMatrix &flow,
                         const linalg::FlatMatrix &dist, double maxDist)
    : dist_(&dist), n_(flow.rows()), nloc_(dist.rows()),
      keepMins_(static_cast<long>(n_) * nloc_ >=
                DeltaTable::kRowMinsFrom)
{
    if (flow.rows() != flow.cols())
        throw std::invalid_argument("QapInstance: flow not square");
    if (dist.rows() != dist.cols())
        throw std::invalid_argument("QapInstance: dist not square");
    if (n_ > nloc_)
        throw std::invalid_argument("tabuSearchQap: circuit too large");

    nzOff_.assign(n_ + 1, 0);
    for (int i = 0; i < n_; ++i) {
        const double *row = flow[i];
        for (int j = 0; j < n_; ++j)
            if (row[j] != 0.0) {
                nzCol_.push_back(j);
                nzVal_.push_back(row[j]);
            }
        nzOff_[i + 1] = static_cast<int>(nzCol_.size());
    }

    // update() infers the stale entries from the moved facilities'
    // flow rows, which is only sound when flow is symmetric; the
    // O(1) updates additionally read dist by row where the
    // derivation says column, so they need dist symmetric too.  All
    // of it holds for hop-distance QAPs.  The flow side runs over
    // the nonzeros: a zero entry is integral, adds nothing to a row
    // sum, and its transpose is checked from the other side.
    flowSymmetric_ = true;
    bool integral = true;
    double maxRowSum = 0.0;  // F
    for (int i = 0; i < n_; ++i) {
        double sum = 0.0;
        for (int k = nzOff_[i]; k < nzOff_[i + 1]; ++k) {
            int j = nzCol_[k];
            double f = nzVal_[k];
            if (j != i && f != flow[j][i])
                flowSymmetric_ = false;
            if (f != std::floor(f))
                integral = false;
            sum += std::fabs(f);
        }
        maxRowSum = std::max(maxRowSum, sum);
    }
    if (flowSymmetric_ && integral) {
        if (maxDist < 0.0)
            maxDist = exactMaxDistance(dist);  // D; NaN fails
        exact_ = 8.0 * maxRowSum * maxDist < 9007199254740992.0;  // 2^53
    }
}

double
QapInstance::cost(const std::vector<int> &perm) const
{
    double c = 0.0;
    for (int i = 0; i < n_; ++i) {
        const double *drow = (*dist_)[perm[i]];
        for (int k = nzOff_[i]; k < nzOff_[i + 1]; ++k) {
            int j = nzCol_[k];
            if (j > i)
                c += nzVal_[k] * drow[perm[j]];
        }
    }
    return c;
}

DeltaTable::DeltaTable(const QapInstance &inst)
    : dist_(&inst.dist()), n_(inst.facilities()),
      nloc_(inst.locations()), keepMins_(inst.keepsRowMins()),
      exact_(inst.exactArithmetic()),
      flowSymmetric_(inst.flowSymmetric()), nzOff_(inst.nzOff()),
      nzCol_(inst.nzCol()), nzVal_(inst.nzVal())
{
    table_.resize(static_cast<size_t>(n_) * nloc_);
    touched_.reserve(nloc_);
    inSet_.assign(nloc_, 0);
    g_.assign(nloc_, 0.0);
    h_.assign(nloc_, 0.0);
    for (int k = 0; k < 2; ++k) {
        s_[k].assign(nloc_, 0.0);
        t_[k].assign(n_, 0.0);
        md_[k].assign(n_, 0.0);
    }
    pc_.reserve(nloc_);
    pg_.reserve(nloc_);
    ph_.reserve(nloc_);
    cm_.assign(n_, 0.0);
    rowMin_.assign(n_, kInf);
}

double
DeltaTable::facilityCost(const std::vector<int> &perm, int x) const
{
    const double *dx = (*dist_)[perm[x]];
    double c = 0.0;
    for (int k = nzOff_[x]; k < nzOff_[x + 1]; ++k)
        c += nzVal_[k] * dx[perm[nzCol_[k]]];
    return c;
}

double
DeltaTable::evaluate(const std::vector<int> &perm, int a, int b) const
{
    double dd = 0.0;
    int pa = perm[a], pb = perm[b];
    const double *da = (*dist_)[pa];
    const double *db = (*dist_)[pb];
    if (a < n_) {
        for (int k = nzOff_[a]; k < nzOff_[a + 1]; ++k) {
            int j = nzCol_[k];
            if (j == b)
                continue;
            int pj = (j == a) ? pa : perm[j];
            dd += nzVal_[k] * (db[pj] - da[pj]);
        }
    }
    if (b < n_) {
        for (int k = nzOff_[b]; k < nzOff_[b + 1]; ++k) {
            int j = nzCol_[k];
            if (j == a)
                continue;
            int pj = (j == b) ? pb : perm[j];
            dd += nzVal_[k] * (da[pj] - db[pj]);
        }
    }
    return dd;
}

void
DeltaTable::recomputeRowMin(int a)
{
    if (!keepMins_)
        return;
    // Four independent chains.  A running min inside a row's write
    // loop compiles to one min instruction per entry on a single
    // dependency chain, which costs more than this second pass over
    // the row while it is still in L1.
    const double *r = row(a);
    double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
    int b = a + 1;
    for (; b + 4 <= nloc_; b += 4) {
        m0 = lower(m0, r[b]);
        m1 = lower(m1, r[b + 1]);
        m2 = lower(m2, r[b + 2]);
        m3 = lower(m3, r[b + 3]);
    }
    for (; b < nloc_; ++b)
        m0 = lower(m0, r[b]);
    rowMin_[a] = lower(lower(m0, m1), lower(m2, m3));
}

void
DeltaTable::settleRowMin(int a, const ColumnWrites &w)
{
    // The unwritten entries are all >= the old minimum, so a written
    // value at or below it is the new minimum.  Otherwise the minimum
    // stands unless a write overwrote an entry holding it.
    if (!keepMins_)
        return;
    if (w.lo <= rowMin_[a])
        rowMin_[a] = w.lo;
    else if (w.hitMin)
        recomputeRowMin(a);
}

template <class Write>
void
DeltaTable::writeUntouchedRows(Write write)
{
    // write(a, row, writes) stores row a's new entries in the touched
    // columns above a through writes.put().
    for (int a = 0; a < n_; ++a) {
        if (inSet_[a])
            continue;
        ColumnWrites w{rowMin_[a]};
        write(a, table_.data() + static_cast<size_t>(a) * nloc_, w);
        settleRowMin(a, w);
    }
}

void
DeltaTable::reset(const std::vector<int> &perm)
{
    if (exact_) {
        for (int x = 0; x < n_; ++x)
            cm_[x] = facilityCost(perm, x);
        // Rows s and s + 1 share one sparse pass (from s + 1 on, the
        // real entries both rows hold).
        for (int s = 0; s < n_; s += 2) {
            int b = std::min(s + 1, n_ - 1);
            loadMovedFacility(perm, 0, s);
            loadMovedFacility(perm, 1, b);
            movedDeltas(perm, s, b, s + 1);
            writeMovedRow(perm, 0, s);
            if (b != s)
                writeMovedRow(perm, 1, b);
        }
        return;
    }
    for (int a = 0; a < n_; ++a) {
        double *row = table_.data() + static_cast<size_t>(a) * nloc_;
        for (int b = a + 1; b < nloc_; ++b)
            row[b] = evaluate(perm, a, b);
        recomputeRowMin(a);
    }
}

void
DeltaTable::update(const std::vector<int> &perm, int u, int v)
{
    // An entry (a, b) reads perm[a], perm[b] and perm[j] for a's and
    // b's flow partners j; the exchange changed slots u and v only.
    // So the stale entries are exactly those touching u, v, or a
    // flow partner of u or v (flow is symmetric: u in nz[a] iff a in
    // nz[u]).  Every pass treats u and v alike, so either order works.
    touched_.clear();
    auto mark = [this](int s) {
        if (!inSet_[s]) {
            inSet_[s] = 1;
            touched_.push_back(s);
        }
    };
    mark(u);
    mark(v);
    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            mark(nzCol_[k]);
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            mark(nzCol_[k]);
    // Ascending: the untouched-row passes find the touched columns
    // above a row as a suffix.
    std::sort(touched_.begin(), touched_.end());

    if (exact_) {
        updateIntegral(perm, u, v);
    } else {
        // Non-integral data: re-evaluate every stale entry in
        // evaluate() order so cached bits match a fresh computation.
        for (int s : touched_) {
            if (s >= n_)
                break;  // dummy-dummy pairs are never scanned
            double *row = table_.data() + static_cast<size_t>(s) * nloc_;
            for (int b = s + 1; b < nloc_; ++b)
                row[b] = evaluate(perm, s, b);
            recomputeRowMin(s);
        }
        size_t first = 0;  // touched_[first..] are the columns > a
        writeUntouchedRows([&](int a, double *row, ColumnWrites &w) {
            while (first < touched_.size() && touched_[first] < a)
                ++first;
            for (size_t i = first; i < touched_.size(); ++i)
                w.put(row[touched_[i]], evaluate(perm, a, touched_[i]));
        });
    }

    for (int s : touched_)
        inSet_[s] = 0;
}

void
DeltaTable::updateIntegral(const std::vector<int> &perm, int u, int v)
{
    // g is the sparse flow-difference column and h the dense
    // distance-difference column of the O(1) correction; both are
    // exact integers, so every path below produces the same bits
    // evaluate() would.  cm_[x] reads perm[x] and x's partners, so it
    // went stale for exactly the touched real facilities; the moved
    // deltas read it.
    for (int s : touched_)
        if (s < n_)
            cm_[s] = facilityCost(perm, s);
    int lu = perm[u], lv = perm[v];
    const double *dlu = (*dist_)[lu];
    const double *dlv = (*dist_)[lv];
    for (int x = 0; x < nloc_; ++x)
        h_[x] = dlu[perm[x]] - dlv[perm[x]];
    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            g_[nzCol_[k]] += nzVal_[k];
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            g_[nzCol_[k]] -= nzVal_[k];

    // md_[0] and md_[1] hold delta(u, m) and delta(v, m) for every
    // real m; the pair (u, v) is written with the smaller one's row.
    loadMovedFacility(perm, 0, u);
    loadMovedFacility(perm, 1, v);
    movedDeltas(perm, u, v, 0);
    if (u < n_)
        writeMovedRow(perm, 0, u);
    if (v < n_)
        writeMovedRow(perm, 1, v);

    pc_.clear();
    pg_.clear();
    ph_.clear();
    for (int w : touched_) {
        if (w >= n_)
            break;
        if (w == u || w == v)
            continue;
        correctPartnerRow(w, u, v);
        if (g_[w] != 0.0) {
            pc_.push_back(w);
            pg_.push_back(g_[w]);
            ph_.push_back(h_[w]);
        }
    }

    // An untouched row a has g_a = 0, so its entry in partner column
    // w moves by -g_w (h_w - h_a) (zero when g_w = 0: those columns
    // are not in pc_); its moved-column entries are the moved deltas.
    const double *mdu = md_[0].data();
    const double *mdv = md_[1].data();
    const int np = static_cast<int>(pc_.size());
    int first = 0;  // pc_[first..] are the partner columns > a
    writeUntouchedRows([&](int a, double *row, ColumnWrites &w) {
        while (first < np && pc_[first] < a)
            ++first;
        double ha = h_[a];
        for (int i = first; i < np; ++i) {
            double &e = row[pc_[i]];
            w.put(e, e + pg_[i] * (ha - ph_[i]));
        }
        if (u > a)
            w.put(row[u], mdu[a]);
        if (v > a)
            w.put(row[v], mdv[a]);
    });

    if (u < n_)
        for (int k = nzOff_[u]; k < nzOff_[u + 1]; ++k)
            g_[nzCol_[k]] = 0.0;
    if (v < n_)
        for (int k = nzOff_[v]; k < nzOff_[v + 1]; ++k)
            g_[nzCol_[k]] = 0.0;
}

void
DeltaTable::loadMovedFacility(const std::vector<int> &perm, int slot,
                              int s)
{
    // t is the one distance row every delta of s reads; s_[x] is the
    // cost of s's flow were s at location x (zero for a dummy).
    const double *dps = (*dist_)[perm[s]];
    double *t = t_[slot].data();
    for (int j = 0; j < n_; ++j)
        t[j] = dps[perm[j]];
    std::vector<double> &sx = s_[slot];
    std::fill(sx.begin(), sx.end(), 0.0);
    if (s >= n_)
        return;
    for (int k = nzOff_[s]; k < nzOff_[s + 1]; ++k) {
        const double *drow = (*dist_)[perm[nzCol_[k]]];
        double f = nzVal_[k];
        for (int x = 0; x < nloc_; ++x)
            sx[x] += f * drow[x];
    }
}

void
DeltaTable::movedDeltas(const std::vector<int> &perm, int a, int b,
                        int from)
{
    // md_[0][m] = delta(a, m) and md_[1][m] = delta(b, m) for the
    // loaded facilities a (slot 0) and b (slot 1) and every real
    // m >= from (block comment above; md_[0][a] and md_[1][b] are
    // not deltas).  One pass over the sparse flow serves both: each
    // of m's partners is read once.
    const double *sa = s_[0].data(), *sb = s_[1].data();
    const double *ta = t_[0].data(), *tb = t_[1].data();
    double *mda = md_[0].data(), *mdb = md_[1].data();
    double homeA = sa[perm[a]], homeB = sb[perm[b]];
    for (int m = from; m < n_; ++m) {
        double ca = 0.0, cb = 0.0;
        for (int k = nzOff_[m]; k < nzOff_[m + 1]; ++k) {
            double f = nzVal_[k];
            int j = nzCol_[k];
            ca += f * ta[j];
            cb += f * tb[j];
        }
        int pm = perm[m];
        mda[m] = sa[pm] - homeA + (ca - cm_[m]);
        mdb[m] = sb[pm] - homeB + (cb - cm_[m]);
    }
    // The exchanged pair's own flow: 2 f_sm d[perm s][perm m].
    for (int slot = 0; slot < 2; ++slot) {
        int s = slot == 0 ? a : b;
        if (s >= n_)
            continue;
        double *md = md_[slot].data();
        const double *t = t_[slot].data();
        for (int k = nzOff_[s]; k < nzOff_[s + 1]; ++k) {
            int m = nzCol_[k];
            if (m >= from)
                md[m] += 2.0 * nzVal_[k] * t[m];
        }
    }
}

void
DeltaTable::writeMovedRow(const std::vector<int> &perm, int slot, int s)
{
    // Row s of the loaded real facility from its moved deltas, then
    // the dummy tail (a flowless partner is the pure relocation),
    // then its minimum.
    double *row = table_.data() + static_cast<size_t>(s) * nloc_;
    const double *md = md_[slot].data();
    std::copy(md + s + 1, md + n_, row + s + 1);
    const double *sx = s_[slot].data();
    double home = sx[perm[s]];
    for (int b = std::max(n_, s + 1); b < nloc_; ++b)
        row[b] = sx[perm[b]] - home;
    recomputeRowMin(s);
}

void
DeltaTable::correctPartnerRow(int w, int u, int v)
{
    // Row w of a flow partner, whole: delta += (g_w - g_b)(h_b - h_w)
    // for every b > w, then the entries of u and v, which are moved
    // deltas, overwrite what the sweep left there.  Pairs of two
    // partners are corrected here, on the smaller index's row (the
    // formula covers both ends in one application).  Only partners
    // can carry g_b != 0; a zero coefficient adds +-0, which leaves an
    // entry's bits alone (no entry is -0), so the sweep needs no
    // branch.  The flowless tail (b >= n) only moves when g_w != 0.
    double *row = table_.data() + static_cast<size_t>(w) * nloc_;
    const double *g = g_.data();
    const double *h = h_.data();
    const double gw = g[w], hw = h[w];
    const int end = gw != 0.0 ? nloc_ : n_;
    for (int b = w + 1; b < end; ++b)
        row[b] += (gw - g[b]) * (h[b] - hw);
    if (u > w)
        row[u] = md_[0][w];
    if (v > w)
        row[v] = md_[1][w];
    recomputeRowMin(w);
}

namespace {

/** One worker slot's per-search state, allocated by the caller and
 * reused by every trial the slot runs: reset() rewrites every
 * delta-table entry a search reads, and the tabu array is cleared per
 * trial. */
struct TabuWorkspace
{
    explicit TabuWorkspace(const QapInstance &inst)
        : deltas(inst),
          tabu(static_cast<size_t>(inst.locations()) * inst.locations())
    {
    }

    DeltaTable deltas;
    /** tabu[facility * nloc + location] = first iteration at which
     * the facility may return to the location. */
    std::vector<int, core::MappedAllocator<int>> tabu;
};

/** One randomized trial on `ws`; returns the best placement seen. */
Placement
tabuTrial(const QapInstance &inst, TabuWorkspace &ws,
          std::mt19937_64 &rng, const TabuOptions &opt)
{
    core::profile::ScopedTimer prof(simd::profileLabel, "qap.tabu");

    const int n = inst.facilities();
    const int nloc = inst.locations();

    // Pad with dummy facilities so perm is a full permutation of the
    // device qubits.
    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    // Below ~64 facility-locations the table costs more to maintain
    // than the rescan it replaces (measured crossover between 6x9
    // and 6x16); both paths produce bit-identical placements, so the
    // choice is purely a matter of speed.  Likewise the table keeps
    // row minima, and the scan skips rows on them, only from
    // DeltaTable::kRowMinsFrom on.  Measured end to end on `paper`
    // (every instance below that line; perfbench/run.py, 20 s runs,
    // 10 pairs against a build without row minima, 4-core AVX-512
    // host): minima and skip at every memoized size moved
    // latency_ms_mid 3.33 -> 3.93 ms and throughput_per_s 256 -> 224,
    // minima kept with the skip gated 3.37 -> 4.19 ms and 254 -> 204,
    // each 0 of 10 pairs better; so the cost is the upkeep.  With
    // the gate `paper` is within noise (3.28 -> 3.36 ms, 4 of 10
    // pairs faster).  Every
    // `device_scale` instance (209-575 filled locations) is far
    // above the line.
    DeltaTable &deltas = ws.deltas;
    const bool memoize =
        deltas.memoizable() && static_cast<long>(n) * nloc >= 64;
    if (memoize)
        deltas.reset(perm);

    double cost = inst.cost(perm);
    double best_cost = cost;
    std::vector<int> best_perm = perm;

    std::fill(ws.tabu.begin(), ws.tabu.end(), 0);
    int *tabu = ws.tabu.data();
    // Clamped: tenure 0 would make moves never tabu, and a caller's
    // low/high multipliers (or a tiny device) could invert the range,
    // which is UB for uniform_int_distribution.
    int tenure_lo = std::max(1, opt.tabuLowMul * nloc / 10);
    int tenure_hi =
        std::max(tenure_lo, opt.tabuHighMul * nloc / 10 + 1);
    std::uniform_int_distribution<int> tenure(tenure_lo, tenure_hi);

    // Resolve the dispatch once per search: the scan pointer is hot
    // (called once per row per iteration).
    const auto scan = simd::kernels().scanBelow;
    const double *rowMins = memoize ? deltas.rowMins() : nullptr;

    int stall = 0;
    for (int it = 0; it < opt.maxIters && stall < opt.stallLimit;
         ++it) {
        double best_delta = 0.0;
        int ba = -1, bb = -1;
        bool found = false;
        for (int a = 0; a < n; ++a) {
            if (found && rowMins) {
                // Two-level scan: the same strict < over the exact row
                // minima jumps to the next row that holds an entry
                // below the best move; the rows it passes could not
                // change the selection.
                a = scan(rowMins, a, n, best_delta);
                if (a >= n)
                    break;
            }
            const double *drow = memoize ? deltas.row(a) : nullptr;
            const int *trow = tabu + a * nloc;
            int pa = perm[a];
            if (drow) {
                // Memoized row: the cannot-beat-best skip runs as a
                // SIMD scan for the first strictly-better delta.
                // Strict < in left-to-right order is exactly the
                // scalar predicate, so the selected move (and every
                // downstream placement) is bit-identical.
                for (int b = a + 1; b < nloc; ++b) {
                    if (found) {
                        b = scan(drow, b, nloc, best_delta);
                        if (b >= nloc)
                            break;
                    }
                    double dd = drow[b];
                    bool is_tabu = trow[perm[b]] > it ||
                                   tabu[b * nloc + pa] > it;
                    bool aspire = cost + dd < best_cost - 1e-12;
                    if (is_tabu && !aspire)
                        continue;
                    best_delta = dd;
                    ba = a;
                    bb = b;
                    found = true;
                }
                continue;
            }
            for (int b = a + 1; b < nloc; ++b) {
                double dd = deltas.evaluate(perm, a, b);
                // A pair that cannot beat the current best move is
                // skipped before the (two dependent loads of the)
                // tabu test — pure reordering of side-effect-free
                // predicates, so the selected move is unchanged.
                if (found && dd >= best_delta)
                    continue;
                bool is_tabu = trow[perm[b]] > it ||
                               tabu[b * nloc + pa] > it;
                bool aspire = cost + dd < best_cost - 1e-12;
                if (is_tabu && !aspire)
                    continue;
                best_delta = dd;
                ba = a;
                bb = b;
                found = true;
            }
        }
        if (!found) {
            ++stall;
            continue;
        }

        int t = tenure(rng);
        tabu[ba * nloc + perm[ba]] = it + t;
        tabu[bb * nloc + perm[bb]] = it + t;
        std::swap(perm[ba], perm[bb]);
        cost += best_delta;
        if (memoize)
            deltas.update(perm, ba, bb);
        if (cost < best_cost - 1e-12) {
            best_cost = cost;
            best_perm = perm;
            stall = 0;
        } else {
            ++stall;
        }
    }

    return Placement(best_perm.begin(), best_perm.begin() + n);
}

/** Best of `trials` trials on `inst` (bestOfTabu()). */
Placement
bestOfTrials(const QapInstance &inst, std::uint64_t seed, int trials,
             const TabuOptions &opt, int jobs)
{
    if (trials < 1)
        throw std::invalid_argument("bestOfTabu: trials < 1");

    core::ThreadPool &pool = core::ThreadPool::shared();
    int workers = std::min(pool.size() + 1, trials);
    if (jobs > 0)
        workers = std::min(workers, jobs);
    // As few slots as finish in the same number of rounds.
    const int rounds = (trials + workers - 1) / workers;
    const int slots = (trials + rounds - 1) / rounds;

    // Every trial runs on its own generator seeded `seed + t`, so the
    // work partition over slots cannot influence any result.  The
    // workspaces are allocated here, on the calling thread, and freed
    // after the join (see the tabu.h file comment for why).
    std::vector<TabuWorkspace> spaces;
    spaces.reserve(slots);
    for (int w = 0; w < slots; ++w)
        spaces.emplace_back(inst);
    std::vector<Placement> placements(trials);
    std::vector<double> costs(trials, 0.0);
    std::atomic<int> next{0};
    pool.forkJoin(slots, [&](int slot) {
        for (int t; (t = next.fetch_add(1)) < trials;) {
            std::mt19937_64 trial_rng(seed +
                                      static_cast<std::uint64_t>(t));
            placements[t] = tabuTrial(inst, spaces[slot], trial_rng, opt);
            costs[t] = inst.cost(placements[t]);
        }
    });

    // Reduce sequentially; ties break towards the lowest trial index.
    int best = 0;
    for (int t = 1; t < trials; ++t)
        if (costs[t] < costs[best])
            best = t;
    return placements[best];
}

} // namespace

Placement
tabuSearchQapMatrix(const linalg::FlatMatrix &flow,
                    const linalg::FlatMatrix &dist,
                    std::mt19937_64 &rng, const TabuOptions &opt)
{
    QapInstance inst(flow, dist);
    TabuWorkspace ws(inst);
    return tabuTrial(inst, ws, rng, opt);
}

Placement
tabuSearchQap(const linalg::FlatMatrix &flow,
              const device::Topology &topo, std::mt19937_64 &rng,
              const TabuOptions &opt)
{
    QapInstance inst(flow, topo);
    TabuWorkspace ws(inst);
    return tabuTrial(inst, ws, rng, opt);
}

Placement
bestOfTabu(const linalg::FlatMatrix &flow,
           const linalg::FlatMatrix &dist,
           std::uint64_t seed, int trials, const TabuOptions &opt,
           int jobs)
{
    return bestOfTrials(QapInstance(flow, dist), seed, trials, opt,
                        jobs);
}

Placement
bestOfTabu(const linalg::FlatMatrix &flow,
           const device::Topology &topo, std::uint64_t seed,
           int trials, const TabuOptions &opt, int jobs)
{
    return bestOfTrials(QapInstance(flow, topo), seed, trials, opt,
                        jobs);
}

} // namespace qap
} // namespace tqan
