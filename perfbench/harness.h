/**
 * @file
 * Shared pieces of the perfbench harness: the seeded workloads, the
 * Hamiltonian-text-to-QASM compile path (what `tqanc --qasm` runs)
 * with optional per-layer timers, the output checks and the
 * statistics helpers.
 *
 * Per-layer times are taken from the harness side, around each call
 * into a layer's public function; the pass split comes from
 * CompileResult::passTimes, which PassManager already fills.
 */

#ifndef TQAN_PERFBENCH_HARNESS_H
#define TQAN_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/metrics.h"
#include "device/topology.h"
#include "qcir/circuit.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

/** Per-layer busy time (ms) and counts, summed over one pass. */
struct Trace
{
    std::map<std::string, double> values;

    void add(const std::string &name, double v) { values[name] += v; }
};

/** Run f(); when `trace` is set, add its wall time under `name`. */
template <class F>
auto
timed(Trace *trace, const char *name, F &&f)
{
    if (!trace)
        return f();
    Clock::time_point t0 = Clock::now();
    auto out = f();
    trace->add(name, msSince(t0));
    return out;
}

/** Add a CompileResult's pass split to `trace`, under the layer
 * names of BENCHMARK.json (unify -> core.unify_ms, ...). */
void addPassTimes(Trace &trace, const tqan::core::CompileResult &res);

/** One compile: the inputs of one `tqanc --qasm` invocation. */
struct CompileInput
{
    /** family/device/backend/nN/iI, as tqan-sweep tags its jobs. */
    std::string label;
    std::string hamText;  ///< ham/parser.h text format
    std::string device;   ///< testgen::topologyFromSpec() spec
    tqan::device::GateSet gateset = tqan::device::GateSet::Cnot;
    std::string backend;
    std::uint64_t seed = 0;
};

/** `paper`: the 2qan rows of the Table I/II grid (the
 * table1_table2 preset), inputs drawn with the sweep seeding
 * convention from base seed `seed`; seed 0 is the preset's grid. */
std::vector<CompileInput> paperWorkload(std::uint64_t seed);

/** `device_scale`: NNN Heisenberg and QAOA-REG-3 filling grid:16x16,
 * heavyhex:9, grid:23x23 and heavyhex:15, each by 2qan and
 * 2qan_rrr.  The instances are fixed (base seed 0); `seed` orders
 * the compiles. */
std::vector<CompileInput> deviceScaleWorkload(std::uint64_t seed);

/** What one compile produced, kept for the checks. */
struct CompileOutput
{
    tqan::core::CompilationMetrics metrics;
    std::string qasm;
    int hwGates = 0;  ///< gates of the decomposed circuit
    tqan::device::Topology topo;
    tqan::qcir::Circuit step;
    tqan::core::CompileResult result;
};

/** Hamiltonian text -> QASM string through libtqan's public
 * functions, in `tqanc --qasm` order.  With a trace, each call's
 * wall time and the work counts are added to it. */
CompileOutput compileToQasm(const CompileInput &in, Trace *trace);

/** The quality columns plus a hash of the QASM: identical across
 * repetitions of one compile, or the run is wrong. */
struct Quality
{
    int swaps = 0;
    int depth2q = 0;
    int native2q = 0;
    std::uint64_t qasmHash = 0;

    bool operator==(const Quality &o) const
    {
        return swaps == o.swaps && depth2q == o.depth2q &&
               native2q == o.native2q && qasmHash == o.qasmHash;
    }
    bool operator!=(const Quality &o) const { return !(*this == o); }
};

Quality qualityOf(const tqan::core::CompilationMetrics &m,
                  const std::string &qasm);

/** Checks of one output: the QASM re-parses (qcir::parseQasm) to
 * `hwGates` gates, and every two-qubit gate sits on a coupling edge
 * of `topo`.  Returns what failed, or "" when both hold. */
std::string checkOutput(const std::string &qasm, int hwGates,
                        const tqan::device::Topology &topo);

/** Tallies of verify::checkCompilation over distinct compiles.
 * Oracle-unavailable cases count as skipped, never as passed. */
struct VerifyTally
{
    int checked = 0;
    int skipped = 0;
    int failed = 0;
    double ms = 0.0;
    std::string firstError;
};

void verifyCompile(const std::string &label,
                   const tqan::qcir::Circuit &step,
                   const tqan::core::CompileResult &res,
                   VerifyTally &tally);

/** Wall time of one fixed calibration workload that does not call
 * libtqan, ms. */
double calibrationMs();

/**
 * Converts measured wall time to reference-speed time.  On a shared
 * host the same run can be 30-50% slower from one minute to the next
 * as neighbours load the machine; the calibration workload slows with
 * it, and no change to libtqan can speed it up.  Every reported time
 * is multiplied by factor() = kReferenceMs / (median calibration time
 * measured now), so it reads as milliseconds on the quiet 4-core
 * machine the bounds were set on.
 */
class SpeedScale
{
  public:
    /** The calibration's median time on that machine. */
    static constexpr double kReferenceMs = 13.0;

    /** The current factor; re-calibrates (5 runs, median) when the
     * last calibration is more than half a second old. */
    double factor();

  private:
    bool have_ = false;
    Clock::time_point last_;
    double factor_ = 1.0;
};

/** Nearest-rank percentile (p in [0, 1]) of a non-empty sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Mean of the middle fifth (40th to 60th percentile) of a
 * non-empty sample: the median's position, without its jumps when
 * the two middle samples come from compiles of different sizes. */
double midMean(std::vector<double> v);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // TQAN_PERFBENCH_HARNESS_H
