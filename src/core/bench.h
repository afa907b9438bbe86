/**
 * @file
 * Pinned-benchmark rows (tqan-sweep --bench): the simulation
 * throughput cases, the per-job timing rows, the BENCH_*.json codec
 * and the baseline comparison the CI perf gate runs.  The bench
 * campaign that produces the rows, runBenchCampaign(), is declared
 * next to the sweep campaign in core/sweep.h, which includes this
 * header.  bench.cpp implements both headers' bench half; the row
 * decoders share sweep.cpp's one JSON field reader.
 */

#ifndef TQAN_CORE_BENCH_H
#define TQAN_CORE_BENCH_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tqan {
namespace core {

/**
 * One simulation-throughput benchmark case (`--bench` only): a
 * p-layer QAOA workload on a random 3-regular graph, run on the
 * sim engine.  `shots > 0` times a noisy trajectory batch,
 * `shots == 0` one noiseless statevector pass plus the cost
 * expectation.
 */
struct SimBenchCase
{
    std::string label;      ///< BenchRow.benchmark of the row
    int n = 0;              ///< qubits (3-regular graph nodes)
    int layers = 1;         ///< QAOA p
    int shots = 0;          ///< trajectories; 0 = noiseless pass
    int instance = 0;       ///< graph instance index
    /** Pin the engine's SIMD dispatch to the scalar kernels for this
     * case (backend label "engine-scalar"); pairing one dispatched
     * and one scalar-forced row of the same workload is how
     * BENCH_pr6.json records the SIMD speedup. */
    bool forceScalar = false;
};

/** Execute one case once and return its <C> (kept observable so the
 * compiler cannot elide the work; tests also pin it).  `jobs` sizes
 * the engine — results are identical for every value. */
double runSimCase(const SimBenchCase &c, std::uint64_t baseSeed,
                  int jobs);

/** How a benchmark run repeats the grid. */
struct BenchOptions
{
    /** Un-timed full-grid runs before measuring (cache/alloc
     * warmup). */
    int warmup = 1;
    /** Timed full-grid runs; every reported duration is the median
     * over these. */
    int repeat = 5;
};

/** Median wall times of one job across the timed repeats. */
struct BenchRow
{
    std::string benchmark;
    std::string device;
    std::string gateset;
    std::string backend;
    int nqubits = 0;
    int instance = 0;
    double medianSeconds = 0.0;
    double minSeconds = 0.0;
    double maxSeconds = 0.0;
    /** Medians of the per-pass breakdown (0.0 for baselines). */
    double mappingSeconds = 0.0;
    double routingSeconds = 0.0;
    double schedulingSeconds = 0.0;
    /** Quality metrics of the (repeat-invariant) compiled circuit,
     * so a BENCH_*.json also records routing quality — the
     * greedy-vs-rrr preset is gated on these, not just wall time.
     * -1 = not applicable (sim rows) or absent (bench files written
     * before these fields existed). */
    int swaps = -1;
    int depth2q = -1;
    std::string error;

    bool ok() const { return error.empty(); }
    /** Stable identity used to match rows against a baseline file. */
    std::string key() const;
};

/**
 * The BENCH_*.json document: a small header plus one row object per
 * line (line-oriented on purpose — parseBenchJson() and shell tools
 * can both consume it).
 */
std::string benchJson(const std::string &experiment,
                      const BenchOptions &opt, int jobs,
                      const std::vector<BenchRow> &rows);

/** One benchJson() row object (no trailing comma/newline) — also the
 * bench campaign's shard payload codec. */
std::string benchRowJson(const BenchRow &row);
/** Strict inverse of benchRowJson().
 * @throws std::invalid_argument on malformed lines. */
BenchRow benchRowFromJson(const std::string &line);

/**
 * Read the rows back out of a benchJson() document: each line that
 * holds a "median_seconds" key is one row object (its trailing `,`
 * dropped) parsed with service::parseJsonObject(); other lines are
 * the header and footer.
 * @throws std::invalid_argument naming the line and the field when a
 *         row line is malformed.
 */
std::vector<BenchRow> parseBenchJson(std::istream &in);

/** One baseline-vs-current comparison that exceeded the tolerance. */
struct BenchRegression
{
    std::string key;
    double baselineSeconds = 0.0;
    double currentSeconds = 0.0;
    double ratio = 0.0;
};

/**
 * Match rows by key() and report every current row slower than
 * baseline * (1 + tolerance).  Rows missing from either side are
 * ignored (new grid entries are not regressions), as are rows whose
 * baseline median is under `minSeconds` — at tens of microseconds
 * the clock jitter exceeds any sane tolerance, so gating them only
 * produces flakes.
 */
std::vector<BenchRegression>
compareBench(const std::vector<BenchRow> &baseline,
             const std::vector<BenchRow> &current, double tolerance,
             double minSeconds = 1e-4);

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_BENCH_H
