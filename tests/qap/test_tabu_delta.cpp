/**
 * @file
 * Property tests of the Taillard-style memoized tabu kernel.
 *
 * Three guarantees are pinned here:
 *  1. the incremental DeltaTable always matches a brute-force
 *     costOf-style recomputation after every applied move (both the
 *     integral O(1)-update path and the re-evaluation path, up to
 *     256 locations, with the data bound that selects between them
 *     checked on both sides), and from DeltaTable::kRowMinsFrom
 *     entries on every row minimum equals a brute-force minimum of
 *     its row;
 *  2. the memoized kernel produces placements bit-identical to the
 *     pre-memoization rescanning kernel (reproduced verbatim below)
 *     for the same seeds — the contract that keeps the golden sweep
 *     frozen — on both sides of the two-level scan's size threshold;
 *  3. tiny devices (2-4 qubits) and adversarial tenure multipliers
 *     cannot produce an inverted tenure distribution (UB before the
 *     clamp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "device/devices.h"
#include "device/noise_map.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "qap/tabu.h"
#include "simd/dispatch.h"

using namespace tqan;
using namespace tqan::qap;

namespace {

/** Brute-force objective over a full padded permutation (dummies
 * carry no flow, so only the first n entries matter). */
double
bruteCost(const linalg::FlatMatrix &flow,
          const linalg::FlatMatrix &dist, const std::vector<int> &perm)
{
    int n = flow.rows();
    double c = 0.0;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (flow[i][j] != 0.0)
                c += flow[i][j] * dist[perm[i]][perm[j]];
    return c;
}

/** Random sparse symmetric integer flow with zero diagonal. */
linalg::FlatMatrix
randomFlow(int n, std::mt19937_64 &rng)
{
    linalg::FlatMatrix f(n, n);
    std::uniform_int_distribution<int> weight(1, 9);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (coin(rng) < 0.4) {
                double w = weight(rng);
                f[i][j] = f[j][i] = w;
            }
    return f;
}

/**
 * The pre-memoization kernel, verbatim (modulo FlatMatrix reads and
 * the tenure clamp): every scan re-derives every delta from the
 * sparse flow.  Keep in sync with nothing — this IS the frozen
 * reference the fast kernel must reproduce bit-for-bit.
 */
Placement
referenceTabu(const linalg::FlatMatrix &flow,
              const linalg::FlatMatrix &dist, std::mt19937_64 &rng,
              const TabuOptions &opt = TabuOptions())
{
    int n = flow.rows();
    int nloc = dist.rows();
    std::vector<std::vector<std::pair<int, double>>> nz(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (flow[i][j] != 0.0)
                nz[i].push_back({j, flow[i][j]});

    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);

    auto delta = [&](int a, int b) {
        double dd = 0.0;
        int pa = perm[a], pb = perm[b];
        if (a < n) {
            for (const auto &[k, f] : nz[a]) {
                if (k == b)
                    continue;
                int pk = (k == a) ? pa : perm[k];
                dd += f * (dist[pb][pk] - dist[pa][pk]);
            }
        }
        if (b < n) {
            for (const auto &[k, f] : nz[b]) {
                if (k == a)
                    continue;
                int pk = (k == b) ? pb : perm[k];
                dd += f * (dist[pa][pk] - dist[pb][pk]);
            }
        }
        return dd;
    };

    double cost = bruteCost(flow, dist, perm);
    double best_cost = cost;
    std::vector<int> best_perm = perm;

    std::vector<int> tabu(static_cast<size_t>(nloc) * nloc, 0);
    int lo = std::max(1, opt.tabuLowMul * nloc / 10);
    int hi = std::max(lo, opt.tabuHighMul * nloc / 10 + 1);
    std::uniform_int_distribution<int> tenure(lo, hi);

    int stall = 0;
    for (int it = 0; it < opt.maxIters && stall < opt.stallLimit;
         ++it) {
        double best_delta = 0.0;
        int ba = -1, bb = -1;
        bool found = false;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < nloc; ++b) {
                double dd = delta(a, b);
                bool is_tabu = tabu[a * nloc + perm[b]] > it ||
                               tabu[b * nloc + perm[a]] > it;
                bool aspire = cost + dd < best_cost - 1e-12;
                if (is_tabu && !aspire)
                    continue;
                if (!found || dd < best_delta) {
                    best_delta = dd;
                    ba = a;
                    bb = b;
                    found = true;
                }
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

/** A double's bit pattern: the cache contract is bit-for-bit, so
 * -0.0 and +0.0 (equal under ==) must not pass for each other. */
std::uint64_t
bits(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** Every row minimum must equal a brute-force minimum over the row's
 * scanned entries b > a, dummy tail included (+inf for an empty
 * row), bit for bit: the two-level scan skips a row on it.  Tables
 * below kRowMinsFrom keep none. */
void
expectExactRowMins(const DeltaTable &dt, const std::string &when)
{
    long size = static_cast<long>(dt.facilities()) * dt.locations();
    ASSERT_EQ(dt.rowMins() != nullptr, size >= DeltaTable::kRowMinsFrom)
        << dt.facilities() << " x " << dt.locations();
    if (!dt.rowMins())
        return;
    for (int a = 0; a < dt.facilities(); ++a) {
        double mn = std::numeric_limits<double>::infinity();
        for (int b = a + 1; b < dt.locations(); ++b)
            mn = std::min(mn, dt.delta(a, b));
        ASSERT_EQ(bits(dt.rowMins()[a]), bits(mn))
            << "row " << a << " after " << when << ": "
            << dt.rowMins()[a] << " vs " << mn;
    }
}

/** Apply the exchange of u and v (either order) to `perm` and `dt`,
 * then check the table: the cached move value against the
 * brute-force cost change, every entry against a fresh evaluation
 * bit for bit, and every row minimum. */
void
applyAndCheck(DeltaTable &dt, const linalg::FlatMatrix &flow,
              const linalg::FlatMatrix &dist, std::vector<int> &perm,
              int u, int v, const std::string &when)
{
    int n = dt.facilities(), nloc = dt.locations();
    int lo = std::min(u, v), hi = std::max(u, v);

    // The cached move value must match the brute-force cost change
    // of actually applying the exchange (a pair of two dummies has no
    // entry and changes no cost)...
    double before = bruteCost(flow, dist, perm);
    std::swap(perm[u], perm[v]);
    double after = bruteCost(flow, dist, perm);
    if (lo < n)
        EXPECT_NEAR(dt.delta(lo, hi), after - before,
                    1e-9 * (1.0 + std::abs(after - before)))
            << when << " (" << u << "," << v << ")";
    else
        EXPECT_EQ(after, before) << when;

    // ...and after the incremental update every single entry must
    // equal a fresh evaluation, bit for bit.
    dt.update(perm, u, v);
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < nloc; ++b)
            ASSERT_EQ(bits(dt.delta(a, b)), bits(dt.evaluate(perm, a, b)))
                << "entry (" << a << "," << b << ") = " << dt.delta(a, b)
                << " vs " << dt.evaluate(perm, a, b) << " after " << when
                << " (" << u << "," << v << ")";
    expectExactRowMins(dt, when);
}

/** Drive a DeltaTable through `moves` random exchanges, passed to
 * update() in random order, checking it after every one; then reset
 * the same table to a fresh permutation, as the next trial of a
 * search does, and drive it again. */
void
checkDeltaTable(const linalg::FlatMatrix &flow,
                const linalg::FlatMatrix &dist, std::mt19937_64 &rng,
                int moves, bool expectExact)
{
    int n = flow.rows(), nloc = dist.rows();
    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);

    QapInstance inst(flow, dist);
    DeltaTable dt(inst);
    EXPECT_EQ(dt.exactArithmetic(), expectExact);

    std::uniform_int_distribution<int> pickA(0, n - 1);
    std::uniform_int_distribution<int> pickB(0, nloc - 1);
    for (int trial = 0; trial < 2; ++trial) {
        std::shuffle(perm.begin(), perm.end(), rng);
        dt.reset(perm);
        std::string tag = "trial " + std::to_string(trial);
        expectExactRowMins(dt, tag + " reset");
        for (int step = 0; step < moves; ++step) {
            int u = pickA(rng), v = pickB(rng);
            if (u == v)
                continue;
            if (step % 2)
                std::swap(u, v);
            applyAndCheck(dt, flow, dist, perm, u, v,
                          tag + " move " + std::to_string(step));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

} // namespace

TEST(DeltaTable, MatchesBruteForceOnIntegralInstances)
{
    std::mt19937_64 rng(2024);
    for (int inst = 0; inst < 4; ++inst) {
        int n = 5 + inst * 2;
        auto flow = randomFlow(n, rng);
        auto dist = device::grid(4, 4 + inst).hopDistances();
        checkDeltaTable(flow, dist, rng, 40,
                        /*expectExact=*/true);
    }
}

TEST(DeltaTable, MatchesBruteForceOnNoiseAwareDistances)
{
    // Non-integral distances take the re-evaluation path.
    device::Topology topo = device::grid(4, 4);
    std::mt19937_64 nrng(77);
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.0);

    std::mt19937_64 rng(78);
    auto flow = randomFlow(7, rng);
    checkDeltaTable(flow, dist, rng, 40, /*expectExact=*/false);

    // 90 facilities on 100 locations (9000 entries, ten dummies)
    // keep row minima.
    device::Topology big = device::grid(10, 10);
    auto bigDist = device::NoiseMap::synthetic(big, nrng)
                       .noiseAwareDistances(1.0);
    auto chain = flowMatrix(ham::nnnHeisenberg(90, rng));
    checkDeltaTable(chain, bigDist, rng, 40, /*expectExact=*/false);
}

TEST(DeltaTable, RejectsMalformedShapes)
{
    linalg::FlatMatrix flow(4, 4), dist(3, 3);
    EXPECT_THROW(QapInstance(flow, dist), std::invalid_argument);
    linalg::FlatMatrix rect(3, 4);
    EXPECT_THROW(QapInstance(rect, dist), std::invalid_argument);
}

TEST(DeltaTable, LargeIntegralWeightStaysExact)
{
    // One 2^30 flow weight on a 20-location grid: 8 F D is ~2^36, far
    // below 2^53, so the O(1) updates stay on the exact path.
    std::mt19937_64 rng(4242);
    auto flow = randomFlow(9, rng);
    flow[2][5] = flow[5][2] = 1073741824.0;  // 2^30
    auto dist = device::grid(4, 5).hopDistances();
    checkDeltaTable(flow, dist, rng, 60, /*expectExact=*/true);
}

TEST(DeltaTable, ExactPathBoundIsComputedFromTheData)
{
    // grid(4,5) has diameter 7.  A single flow edge of weight w has
    // 8 F D = 56 w: 2^47 gives 7 * 2^50 < 2^53 (exact), 2^48 gives
    // 7 * 2^51 > 2^53 (re-evaluation path).
    auto dist = device::grid(4, 5).hopDistances();
    linalg::FlatMatrix flow(6, 6);
    for (int i = 0; i + 1 < 6; ++i)
        flow[i][i + 1] = flow[i + 1][i] = 1.0;

    flow[1][4] = flow[4][1] = 140737488355328.0;  // 2^47
    std::mt19937_64 rng(4343);
    checkDeltaTable(flow, dist, rng, 60, /*expectExact=*/true);

    flow[1][4] = flow[4][1] = 281474976710656.0;  // 2^48
    checkDeltaTable(flow, dist, rng, 60, /*expectExact=*/false);
    std::mt19937_64 r1(44), r2(44);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

TEST(DeltaTable, NonzeroDistanceDiagonalIsNotExact)
{
    // The moved-row rebuild assumes d[x][x] = 0; an integral matrix
    // without it must fall back to re-evaluation and still match the
    // reference kernel.
    linalg::FlatMatrix dist = device::grid(4, 4).hopDistances();
    for (int i = 0; i < dist.rows(); ++i)
        dist[i][i] = 3.0;
    std::mt19937_64 rng(4444);
    auto flow = randomFlow(8, rng);
    checkDeltaTable(flow, dist, rng, 40, /*expectExact=*/false);

    std::mt19937_64 r1(45), r2(45);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

TEST(DeltaTable, MatchesFreshEvaluationAtDeviceScale)
{
    // 256 locations: n = 200 leaves 56 dummies that moves pick up,
    // n = 256 has none.  NNN-chain and 3-regular flows are the
    // paper's interaction graphs.
    auto dist = device::grid(16, 16).hopDistances();
    std::mt19937_64 rng(4545);
    for (int n : {200, 256}) {
        auto chain = flowMatrix(ham::nnnHeisenberg(n, rng));
        checkDeltaTable(chain, dist, rng, 60, /*expectExact=*/true);
        auto g = graph::randomRegularGraph(n, 3, rng);
        auto reg3 = flowMatrix(
            ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]));
        checkDeltaTable(reg3, dist, rng, 60, /*expectExact=*/true);
    }
}

TEST(DeltaTable, DeviceScaleUpdateEdgeCases)
{
    // 200 facilities on grid(16,16), above kRowMinsFrom, with scripted
    // moves for the edges of update()'s passes: u = 0; a facility that
    // is a flow partner of both moved facilities with equal weight
    // (g = 0, so its row only moves where other partners sit); partner
    // indices below, between and above u and v; a moved dummy; an
    // exchange of two dummies; the pair passed as (larger, smaller);
    // and negative integral flows, which the exact path accepts.
    auto dist = device::grid(16, 16).hopDistances();
    std::mt19937_64 rng(4646);
    linalg::FlatMatrix flow = flowMatrix(ham::nnnHeisenberg(200, rng));
    auto link = [&](int a, int b, double w) { flow[a][b] = flow[b][a] = w; };
    link(0, 199, -3.0);
    link(40, 80, 2.0);    // 80: partner of 40 and 120, equal weight
    link(120, 80, 2.0);
    link(40, 5, -4.0);    // partners below u...
    link(120, 60, 5.0);   // ...between u and v...
    link(120, 190, -1.0); // ...and above v
    link(40, 150, 1.0);
    link(7, 100, -2.0);
    const int n = 200, nloc = 256;

    std::vector<int> perm(nloc);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    QapInstance inst(flow, dist);
    DeltaTable dt(inst);
    ASSERT_TRUE(dt.exactArithmetic());
    ASSERT_NE(dt.rowMins(), nullptr);
    dt.reset(perm);
    expectExactRowMins(dt, "reset");

    const std::pair<int, int> scripted[] = {
        {0, 199},   // u = 0, v the last real facility
        {40, 120},  // common partner 80 with g = 0
        {120, 40},  // same pair, larger index first
        {0, 230},   // moved dummy
        {230, 7},   // moved dummy, larger index first
        {210, 250}, // two dummies
        {80, 81},   // adjacent partners
        {199, 255}, // last real facility with the last dummy
    };
    for (auto [u, v] : scripted) {
        applyAndCheck(dt, flow, dist, perm, u, v,
                      "scripted (" + std::to_string(u) + "," +
                          std::to_string(v) + ")");
        if (HasFatalFailure())
            return;
    }
    std::uniform_int_distribution<int> pick(0, nloc - 1);
    for (int step = 0; step < 40; ++step) {
        int u = pick(rng), v = pick(rng);
        if (u == v || std::min(u, v) >= n)
            continue;
        applyAndCheck(dt, flow, dist, perm, u, v,
                      "move " + std::to_string(step));
        if (HasFatalFailure())
            return;
    }
}

class TabuBitIdentity : public ::testing::TestWithParam<int>
{
};

TEST_P(TabuBitIdentity, MatchesReferenceKernelOnHopDistances)
{
    // Seeds cover both the memoized path (n * nloc >= 64) and the
    // direct-rescan path (tiny devices).
    std::mt19937_64 gen(900 + GetParam());
    struct Case
    {
        int n;
        device::Topology topo;
    };
    Case cases[] = {
        {4, device::line(5)},          // direct path
        {6, device::grid(3, 3)},       // direct path (54 < 64)
        {8, device::grid(4, 4)},       // memoized
        {10, device::montreal27()},    // memoized
    };
    for (auto &c : cases) {
        auto flow = randomFlow(c.n, gen);
        const auto &dist = c.topo.hopDistances();
        std::uint64_t seed = gen();

        std::mt19937_64 r1(seed), r2(seed);
        Placement fast = tabuSearchQapMatrix(flow, dist, r1);
        Placement ref = referenceTabu(flow, dist, r2);
        EXPECT_EQ(fast, ref)
            << c.topo.name() << " n=" << c.n << " seed " << seed;
    }
}

TEST_P(TabuBitIdentity, MatchesReferenceKernelOnNoiseAware)
{
    std::mt19937_64 gen(1300 + GetParam());
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(gen());
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.5);
    auto flow = randomFlow(9, gen);
    std::uint64_t seed = gen();

    std::mt19937_64 r1(seed), r2(seed);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabuBitIdentity,
                         ::testing::Range(0, 4));

TEST(TabuBitIdentity, MatchesReferenceKernelOnSycamore54)
{
    // 40 facilities on 54 locations; maxIters bounds the reference
    // kernel's full rescans.
    std::mt19937_64 gen(5454);
    auto flow = flowMatrix(ham::nnnHeisenberg(40, gen));
    auto dist = device::sycamore54().hopDistances();
    TabuOptions opt;
    opt.maxIters = 300;
    std::mt19937_64 r1(5455), r2(5455);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1, opt),
              referenceTabu(flow, dist, r2, opt));
}

TEST(TabuBitIdentity, RowSkipMatchesReferenceAtDeviceScale)
{
    // The two-level scan skips every row whose exact minimum cannot
    // beat the best move so far.  It is active from n * nloc = 8192:
    // grid 9x9 with 80 facilities (6480) runs without it, grid 10x10
    // with 90 (9000, ten dummies) just above; heavyhex:9 and 23x23
    // are device_scale instances.  maxIters bounds the reference
    // kernel's full rescans.
    struct Case
    {
        const char *device;
        int n;
        bool reg3;
    };
    const Case cases[] = {
        {"grid:9x9", 80, false},    {"grid:10x10", 90, true},
        {"heavyhex:9", 208, false}, {"heavyhex:9", 150, true},
        {"grid:23x23", 528, false},
    };
    std::mt19937_64 gen(2300);
    for (const Case &c : cases) {
        device::Topology topo = device::deviceByName(c.device);
        linalg::FlatMatrix flow =
            c.reg3 ? flowMatrix(ham::qaoaLayerHamiltonian(
                         graph::randomRegularGraph(c.n, 3, gen),
                         ham::qaoaFixedAngles(1)[0]))
                   : flowMatrix(ham::nnnHeisenberg(c.n, gen));
        const auto &dist = topo.hopDistances();
        TabuOptions opt;
        opt.maxIters = 60;
        std::uint64_t seed = gen();
        std::mt19937_64 r1(seed), r2(seed);
        EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1, opt),
                  referenceTabu(flow, dist, r2, opt))
            << c.device << " n=" << c.n << " seed " << seed;
    }
}

TEST(TabuBitIdentity, RowSkipMatchesReferenceOnNoiseAwareDistances)
{
    // Minima of stored doubles are exact whatever the values, so the
    // skip keeps the re-evaluation path bit-identical too.
    device::Topology topo = device::deviceByName("heavyhex:9");
    std::mt19937_64 gen(2301);
    std::mt19937_64 nrng(gen());
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.5);
    auto flow = flowMatrix(ham::nnnHeisenberg(180, gen));
    TabuOptions opt;
    opt.maxIters = 40;
    std::uint64_t seed = gen();
    std::mt19937_64 r1(seed), r2(seed);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1, opt),
              referenceTabu(flow, dist, r2, opt));
}

TEST(TabuBitIdentity, AsymmetricFlowFallsBackToRescan)
{
    // The public API accepts arbitrary matrices, but memoized
    // updates infer staleness from flow rows — only sound for
    // symmetric flow.  The kernel must detect this, rescan, and
    // still match the reference exactly.
    std::mt19937_64 gen(7777);
    linalg::FlatMatrix flow(8, 8);
    std::uniform_int_distribution<int> w(0, 3);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            if (i != j)
                flow[i][j] = w(gen);
    auto dist = device::grid(4, 4).hopDistances();

    QapInstance inst(flow, dist);
    DeltaTable dt(inst);
    EXPECT_FALSE(dt.memoizable());
    EXPECT_FALSE(dt.exactArithmetic());

    std::mt19937_64 r1(99), r2(99);
    EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r1),
              referenceTabu(flow, dist, r2));
}

TEST(TabuBitIdentitySimd, EveryIsaScanMatchesForcedScalar)
{
    // The vectorized cannot-beat-best scan (scanBelow) evaluates a
    // strict `<` against integral delta-table entries — an exact
    // predicate — so placements must be bit-identical on every
    // host-supported ISA, including the same tie-breaking (first
    // index left to right).
    std::mt19937_64 gen(31337);
    for (int inst = 0; inst < 3; ++inst) {
        auto flow = randomFlow(8 + inst, gen);
        auto dist = device::montreal27().hopDistances();
        std::uint64_t seed = gen();

        Placement scalarP = [&]() {
            simd::ScopedForceIsa force(simd::Isa::Scalar);
            std::mt19937_64 r(seed);
            return tabuSearchQapMatrix(flow, dist, r);
        }();
        for (simd::Isa isa : simd::availableIsas()) {
            simd::ScopedForceIsa force(isa);
            std::mt19937_64 r(seed);
            EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r), scalarP)
                << simd::isaName(isa) << " inst=" << inst;
        }
    }
}

TEST(TabuBitIdentitySimd, NoiseAwareDistancesMatchAcrossIsas)
{
    // Non-integral (noise-aware) deltas still go through the same
    // exact < predicate; selection stays bit-identical even though
    // the values themselves are irrational.
    std::mt19937_64 gen(31338);
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(gen());
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.5);
    auto flow = randomFlow(9, gen);
    std::uint64_t seed = gen();

    Placement scalarP = [&]() {
        simd::ScopedForceIsa force(simd::Isa::Scalar);
        std::mt19937_64 r(seed);
        return tabuSearchQapMatrix(flow, dist, r);
    }();
    for (simd::Isa isa : simd::availableIsas()) {
        simd::ScopedForceIsa force(isa);
        std::mt19937_64 r(seed);
        EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r), scalarP)
            << simd::isaName(isa);
    }
}

TEST(TabuBitIdentitySimd, RowSkipMatchesForcedScalarAtDeviceScale)
{
    // heavyhex:9 filled is above the row-skip threshold: scanBelow
    // runs over the row minima as well as the rows, on every ISA.
    device::Topology topo = device::deviceByName("heavyhex:9");
    const auto &dist = topo.hopDistances();
    std::mt19937_64 gen(31339);
    auto flow = flowMatrix(ham::nnnHeisenberg(208, gen));
    TabuOptions opt;
    opt.maxIters = 400;
    std::uint64_t seed = gen();

    Placement scalarP = [&]() {
        simd::ScopedForceIsa force(simd::Isa::Scalar);
        std::mt19937_64 r(seed);
        return tabuSearchQapMatrix(flow, dist, r, opt);
    }();
    for (simd::Isa isa : simd::availableIsas()) {
        simd::ScopedForceIsa force(isa);
        std::mt19937_64 r(seed);
        EXPECT_EQ(tabuSearchQapMatrix(flow, dist, r, opt), scalarP)
            << simd::isaName(isa);
    }
}

TEST(TabuBitIdentityJobs, ParallelTrialsMatchSequential)
{
    std::mt19937_64 gen(42);
    auto h = ham::nnnHeisenberg(10, gen);
    auto flow = flowMatrix(h);
    auto dist = device::sycamore54().hopDistances();

    Placement seq = bestOfTabu(flow, dist, 4242, 5, TabuOptions(), 1);
    Placement par = bestOfTabu(flow, dist, 4242, 5, TabuOptions(), 8);
    EXPECT_EQ(seq, par);
}

TEST(TabuBitIdentityJobs, BestOfTrialsIsTheBestReferenceRun)
{
    // bestOfTabu reuses one delta table and tabu array per worker
    // across trials; trial t must still be the reference run seeded
    // seed + t, and the winner the cheapest, ties to the lower t.
    // Cases: paper scale, noise-aware distances, and a filled
    // heavyhex:9 (row minima kept, integral updates).
    struct Case
    {
        linalg::FlatMatrix flow, dist;
        TabuOptions opt;
    };
    std::mt19937_64 gen(4343);
    std::vector<Case> cases;
    cases.push_back({flowMatrix(ham::nnnHeisenberg(10, gen)),
                     device::sycamore54().hopDistances(), {}});
    device::Topology montreal = device::montreal27();
    std::mt19937_64 nrng(gen());
    cases.push_back(
        {randomFlow(9, gen),
         device::NoiseMap::synthetic(montreal, nrng)
             .noiseAwareDistances(1.0),
         {}});
    TabuOptions shortRun;
    shortRun.maxIters = 60;
    cases.push_back({flowMatrix(ham::nnnHeisenberg(208, gen)),
                     device::deviceByName("heavyhex:9").hopDistances(),
                     shortRun});

    for (size_t c = 0; c < cases.size(); ++c) {
        const Case &k = cases[c];
        std::uint64_t seed = gen();
        Placement want;
        double wantCost = 0.0;
        for (int t = 0; t < 5; ++t) {
            std::mt19937_64 r(seed + static_cast<std::uint64_t>(t));
            Placement p = referenceTabu(k.flow, k.dist, r, k.opt);
            double cost = qapCostMatrix(k.flow, k.dist, p);
            if (t == 0 || cost < wantCost) {
                want = p;
                wantCost = cost;
            }
        }
        for (int jobs : {1, 3})
            EXPECT_EQ(bestOfTabu(k.flow, k.dist, seed, 5, k.opt, jobs),
                      want)
                << "case " << c << " jobs " << jobs;
    }
}

TEST(TabuTinyDevices, ValidPlacementsFor2To4Qubits)
{
    // nloc in {2, 3, 4}: the unclamped tenure bounds
    // (9 * nloc / 10, 11 * nloc / 10 + 1) degrade to ranges with
    // lo = 0 (tenure 0 = never tabu); the clamp keeps them sane.
    for (int nq : {2, 3, 4}) {
        device::Topology topo = device::line(nq);
        linalg::FlatMatrix flow(nq, nq);
        for (int i = 0; i + 1 < nq; ++i)
            flow[i][i + 1] = flow[i + 1][i] = 1.0;
        std::mt19937_64 rng(500 + nq);
        Placement p = tabuSearchQap(flow, topo, rng);
        EXPECT_TRUE(placementIsValid(p, nq)) << "line:" << nq;
        EXPECT_EQ(static_cast<int>(p.size()), nq);
    }
}

TEST(TabuTinyDevices, InvertedTenureMultipliersAreClamped)
{
    // tabuLowMul > tabuHighMul used to hand uniform_int_distribution
    // an inverted range — UB.  With the clamp the search just runs
    // with a degenerate-but-valid tenure.
    TabuOptions opt;
    opt.tabuLowMul = 50;
    opt.tabuHighMul = 1;
    for (int nq : {2, 4, 9}) {
        device::Topology topo =
            nq == 9 ? device::grid(3, 3) : device::line(nq);
        linalg::FlatMatrix flow(nq, nq);
        for (int i = 0; i + 1 < nq; ++i)
            flow[i][i + 1] = flow[i + 1][i] = 2.0;
        std::mt19937_64 rng(600 + nq);
        Placement p = tabuSearchQap(flow, topo, rng, opt);
        EXPECT_TRUE(placementIsValid(p, topo.numQubits()));
    }
}

TEST(TabuTinyDevices, BestOfTabuOnTwoQubitDevice)
{
    linalg::FlatMatrix flow(2, 2);
    flow[0][1] = flow[1][0] = 3.0;
    Placement p = bestOfTabu(
        flow, device::line(2).hopDistances(), 7, 3,
        TabuOptions(), 2);
    EXPECT_TRUE(placementIsValid(p, 2));
}
