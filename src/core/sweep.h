/**
 * @file
 * Declarative benchmark sweeps over the batch compilation engine.
 *
 * Every figure and table of the paper is a sweep: a cross product of
 * (benchmark family x size x instance x device x backend).  A
 * SweepSpec describes that grid declaratively; expandSweep() builds
 * the circuits/Hamiltonians and turns the grid into BatchJobs, and
 * runSweep() executes them on a BatchCompiler and returns one scored
 * row per job.  `tqan-sweep` and the golden-file regression tests
 * consume this one engine: the paper's Fig. 7/8/9/11/12 and Table
 * I/II grids are the `figures` and `table1_table2` presets, and the
 * Sec. V-D runtime evaluation is `tqan-sweep --bench` on a spec, so
 * the whole result grid reproduces with one command and is guarded
 * by one set of golden files.  The one-off experiments in bench/
 * build their instances with buildSweepUnit() and the same seeds.
 *
 * Seeding convention: circuits are generated from
 * sweepInstanceSeed(benchmark, n, instance) and each (job, backend)
 * pair compiles with sweepCompileSeed(...), which folds in the
 * backend *name* (not its position in the spec), so reordering the
 * spec's lists never changes any result.  `spec.seed` perturbs every
 * seed; 0 is the canonical grid the golden files pin.
 *
 * Three files implement this header: sweep_spec.cpp (families,
 * seeds, buildSweepUnit(), the spec parser, presets and
 * expandSweep()), sweep.cpp (the sweep campaign, the CSV/JSON row
 * codecs and the Table I/II aggregation) and bench.cpp (the bench
 * campaign and its sim cases; the bench row types live in
 * core/bench.h, included here).  Both campaigns run each phase
 * through one supervised phase runner, runCampaignPhase() in
 * sweep_internal.h.
 */

#ifndef TQAN_CORE_SWEEP_H
#define TQAN_CORE_SWEEP_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/bench.h"
#include "ham/hamiltonian.h"
#include "robust/runner.h"

namespace tqan {
namespace core {

/** Benchmark family identifiers (paper Sec. IV), plus QaoaDense: a
 * QAOA layer on an Erdos-Renyi G(n, 0.5) graph — an adversarial
 * high-congestion routing workload the paper does not sweep.  It is
 * addressable by name ("QAOA_DENSE" in specs and presets) but
 * deliberately absent from allBenchmarks(), so default grids and the
 * golden files never pick it up. */
enum class Benchmark {
    NnnHeisenberg,
    NnnXY,
    NnnIsing,
    QaoaReg3,
    QaoaDense
};

/** CSV name of a family ("NNN_Heisenberg", ..., "QAOA_DENSE"). */
std::string benchmarkName(Benchmark b);

/** Inverse of benchmarkName(); also resolves the off-grid
 * QAOA_DENSE family.
 * @throws std::invalid_argument on an unknown name. */
Benchmark benchmarkByName(const std::string &name);

/** The paper's four families, in paper order (QaoaDense is opt-in
 * only and intentionally not listed here). */
std::vector<Benchmark> allBenchmarks();

/** The chain-model sizes of Fig. 7/8/9, capped at `cap` qubits. */
std::vector<int> chainSizes(int cap);

/** The QAOA sizes, capped at `cap` qubits. */
std::vector<int> qaoaSizes(int cap);

/** Circuit-generation seed of one (family, size, instance). */
std::uint64_t sweepInstanceSeed(Benchmark b, int n, int instance);

/** Compile seed of one job: the instance seed xor a hash of the
 * backend name, perturbed by the sweep's base seed. */
std::uint64_t sweepCompileSeed(Benchmark b, int n, int instance,
                               const std::string &backend,
                               std::uint64_t base);

/** One device of a sweep: lookup name plus an optional gate-set
 * override (empty = device::defaultGateSet). */
struct SweepDeviceSpec
{
    std::string name;
    std::string gateset;
};

/**
 * A declarative sweep: the grid plus the 2QAN pipeline knobs.  The
 * per-benchmark maps override the global lists for one family (the
 * figure sweeps use different sizes for chains and QAOA, and run
 * IC-QAOA on QAOA rows only).  Sizes exceeding a device's qubit
 * count are skipped for that device.
 */
struct SweepSpec
{
    std::string experiment = "sweep";
    std::vector<Benchmark> benchmarks = allBenchmarks();
    std::vector<SweepDeviceSpec> devices;
    std::vector<std::string> backends;
    std::vector<int> sizes;
    int instances = 1;
    std::map<Benchmark, std::vector<int>> sizesFor;
    std::map<Benchmark, int> instancesFor;
    std::map<Benchmark, std::vector<std::string>> backendsFor;
    /** Base seed; 0 is the canonical grid pinned by the golden
     * files. */
    std::uint64_t seed = 0;
    /** Router every job compiles with (a core::Router registry
     * name).  Empty = leave each backend's own default alone, which
     * is what the golden grid pins; backends that hard-pin a router
     * (2qan_rrr) ignore the override by construction. */
    std::string router;
    /** Randomized mapping trials of the 2QAN pipeline (paper: 5). */
    int trials = 5;
    /** Worker threads *inside* each 2QAN job's mapper stage.  Batch
     * parallelism across jobs is the BatchCompiler's `jobs`. */
    int mapperJobs = 1;
    /** Simulation-throughput rows appended by runBench() (ignored by
     * runSweep — the CSV schema is compile metrics).  A spec may be
     * sim-only: empty devices + non-empty simCases. */
    std::vector<SimBenchCase> simCases;
    /** End-to-end verification: after compiling, run every ok row
     * through verify::checkCompilation (un-map, layout, operator
     * multiset, unitary oracle) and fail the row on a mismatch.
     * The `verify` preset is the canonical small all-backend grid
     * with this on; `tqan-sweep --verify` forces it for any spec. */
    bool verify = false;
    /** runBench() only: after the dispatched compile-throughput
     * pass, re-run the whole compile grid with SIMD dispatch pinned
     * to scalar and append the rows with a "-scalar" backend suffix,
     * so one --bench invocation emits paired scalar-vs-dispatched
     * compile rows (the tabu scan is the SIMD-sensitive stage). */
    bool simdPairedCompile = false;
};

/**
 * Parse a sweep spec from `key = value` lines ('#' starts a
 * comment).  Keys: experiment, benchmarks, devices (name or
 * name@gateset), backends, sizes, instances, seed, trials,
 * mapper_jobs, router; `sizes.FAMILY`, `instances.FAMILY` and
 * `backends.FAMILY` override per family.  Backend and router names
 * are resolved against their registries at parse time, so a typo
 * fails here with the registered names listed — not deep inside the
 * batch run.
 * @throws std::invalid_argument on unknown keys or bad values.
 */
SweepSpec parseSweepSpec(std::istream &in);

/** Human-readable description of the spec format (CLI --help). */
std::string sweepSpecHelp();

/** Built-in spec by name; sweepPresetNames() lists them.
 * @throws std::invalid_argument on an unknown name. */
SweepSpec sweepPreset(const std::string &name);
std::vector<std::string> sweepPresetNames();

/** One generated problem instance; owns its inputs so BatchJobs can
 * reference them for the lifetime of the expansion. */
struct SweepUnit
{
    Benchmark benchmark = Benchmark::NnnHeisenberg;
    int n = 0;
    int instance = 0;
    std::shared_ptr<const ham::TwoLocalHamiltonian> hamiltonian;
    std::shared_ptr<const qcir::Circuit> step;
};

/** Generate one problem instance under the sweep seeding
 * convention. */
SweepUnit buildSweepUnit(Benchmark b, int n, int instance,
                         std::uint64_t baseSeed);

/** One result row (the bench CSV schema; `seconds` and the per-pass
 * breakdown ride along for the JSON output and the runtime
 * evaluation — the CSV schema is pinned by the golden files). */
struct SweepRow
{
    std::string experiment;
    std::string benchmark;
    std::string device;
    std::string gateset;
    std::string backend;
    int nqubits = 0;
    int instance = 0;
    CompilationMetrics metrics;
    double seconds = 0.0;
    /** Wall time of the classic pipeline stages (paper Sec. V-D
     * breakdown); 0.0 for backends timed as one "compile" stage. */
    double mappingSeconds = 0.0;
    double routingSeconds = 0.0;
    double schedulingSeconds = 0.0;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** A fully materialized sweep: jobs[i] produces rows[i]. */
struct ExpandedSweep
{
    std::vector<SweepUnit> units;
    std::vector<device::Topology> topologies;
    std::vector<device::GateSet> gatesets;
    std::vector<BatchJob> jobs;
    /** Row metadata, metrics left blank until the batch runs. */
    std::vector<SweepRow> rows;
};

/** Materialize the grid: generate every problem instance once and
 * fan it out over devices and backends.
 * @throws std::invalid_argument on unknown devices/benchmarks or an
 *         empty grid. */
ExpandedSweep expandSweep(const SweepSpec &spec);

/** Campaign supervision tallies shared by the sweep and bench
 * campaign entry points (see robust/runner.h for the semantics). */
struct CampaignTallies
{
    std::uint64_t restored = 0;
    std::uint64_t retried = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t skipped = 0;
    /** Stopped early (signal or stopAfter); resume to finish. */
    bool interrupted = false;
};

/** runSweepCampaign() result: rows in grid order.  A quarantined or
 * skipped shard still yields its row, with a non-empty `error`. */
struct SweepCampaignOutcome
{
    std::vector<SweepRow> rows;
    CampaignTallies tallies;
};

/**
 * Expand and run the grid as a supervised robust::CampaignRunner
 * campaign — one shard per row, each compiled directly on its worker
 * (thread or forked process) and journaled to `opt.checkpoint`, so a
 * killed sweep resumes with opt.resume to byte-identical rows.  Rows
 * always round-trip through their journal payload (toJson ->
 * sweepRowFromJson), fresh or restored, which is what makes the two
 * paths indistinguishable.  `opt.workers <= 0` takes the batch's
 * `jobs`; `opt.configTag` is derived from the spec.
 */
SweepCampaignOutcome
runSweepCampaign(const SweepSpec &spec, const BatchCompiler &bc,
                 const robust::CampaignOptions &opt);

/** Expand, run on `bc`, and score: one row per job, in grid order.
 * Equivalent to an unsupervised runSweepCampaign() (no journal, no
 * deadline) with the batch's worker count. */
std::vector<SweepRow> runSweep(const SweepSpec &spec,
                               const BatchCompiler &bc);

/** @name Row formatting. @{ */
/** The bench CSV header (no trailing newline). */
std::string sweepCsvHeader();
/** One CSV row matching sweepCsvHeader(); failed rows print -1
 * metrics. */
std::string toCsv(const SweepRow &row);
/** One JSON object (JSONL style), including `seconds` and `error`. */
std::string toJson(const SweepRow &row);
/** Strict inverse of toJson() — the sweep campaign's shard payload
 * codec, read with service::parseJsonObject().
 * @throws std::invalid_argument naming the field on malformed lines. */
SweepRow sweepRowFromJson(const std::string &line);
/** @} */

/** @name Table I/II style aggregation. @{ */
/** One aggregate line: avg/max ratio of a baseline's overhead to the
 * reference compiler's, per (family, device, gate set, metric). */
struct SweepTableRow
{
    std::string table;
    std::string baseline;
    std::string benchmark;
    std::string device;
    std::string gateset;
    std::string metric;  ///< "swaps" | "gates" | "depth2q"
    double avg = 0.0;
    double max = 0.0;
};

/**
 * Aggregate raw rows into the paper's Table I/II reduction grid:
 * for every baseline in `baselines`, match its rows to the
 * `reference` compiler's rows on (benchmark, device, gate set,
 * size, instance) and average the overhead ratios.  A device
 * compiled to two gate sets yields two groups.  Rows with errors
 * are skipped.
 */
std::vector<SweepTableRow>
aggregateTables(const std::vector<SweepRow> &rows,
                const std::string &reference,
                const std::vector<std::string> &baselines);

std::string sweepTableCsvHeader();
std::string toCsv(const SweepTableRow &row);
/** @} */

/** @name Pinned-benchmark campaign (tqan-sweep --bench). @{ */

/** runBenchCampaign() result: compile rows (then "-scalar" rows for
 * simdPairedCompile, then sim rows), quarantined/skipped rows with a
 * non-empty `error`. */
struct BenchCampaignOutcome
{
    std::vector<BenchRow> rows;
    CampaignTallies tallies;
};

/**
 * The benchmark grid as a supervised campaign: one shard per job,
 * each shard warming up and timing its own job `warmup` + `repeat`
 * times.  simdPairedCompile and simCases run as follow-on campaigns
 * (the scalar pin and the sim engine are process-global, so the
 * phases must not interleave) journaling to `campaign.checkpoint` +
 * ".scalar" / ".sim"; an interrupted phase skips the later ones.  A
 * resumed bench replays journaled timings verbatim rather than
 * re-measuring.  `campaign.workers <= 0` takes the batch's `jobs`.
 */
BenchCampaignOutcome
runBenchCampaign(const SweepSpec &spec, const BatchCompiler &bc,
                 const BenchOptions &opt,
                 const robust::CampaignOptions &campaign);

/**
 * Expand the spec once, time every job `warmup` un-timed + `repeat`
 * timed repeats on `bc`, and reduce each job's wall times to a
 * BenchRow (medians are per job, so a slow outlier run cannot shift
 * every row).  Compilation results are bit-identical across repeats;
 * only the clock varies.  Equivalent to an unsupervised
 * runBenchCampaign().
 */
std::vector<BenchRow> runBench(const SweepSpec &spec,
                               const BatchCompiler &bc,
                               const BenchOptions &opt);

/** @} */

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_SWEEP_H
