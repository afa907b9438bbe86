/**
 * @file
 * Tests of the tqan-sweep --bench machinery: median reduction over
 * repeats, the BENCH_*.json writer/reader round trip, and the
 * baseline comparison the CI perf job gates on.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/sweep.h"

using namespace tqan;
using namespace tqan::core;

namespace {

SweepSpec
tinySpec()
{
    SweepSpec s;
    s.experiment = "bench_test";
    s.benchmarks = {Benchmark::NnnHeisenberg};
    s.devices = {{"grid:3x3", ""}};
    s.backends = {"2qan", "tket_like"};
    s.sizes = {6};
    s.trials = 1;
    return s;
}

BenchRow
rowWith(const std::string &backend, double median)
{
    BenchRow b;
    b.benchmark = "NNN_Heisenberg";
    b.device = "grid3x3";
    b.gateset = "cnot";
    b.backend = backend;
    b.nqubits = 6;
    b.instance = 0;
    b.medianSeconds = median;
    b.minSeconds = median * 0.9;
    b.maxSeconds = median * 1.1;
    return b;
}

} // namespace

TEST(Bench, RunProducesOneRowPerJobWithPositiveMedians)
{
    BatchCompiler bc({1});
    std::vector<BenchRow> rows =
        runBench(tinySpec(), bc, {/*warmup=*/0, /*repeat=*/3});
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &r : rows) {
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_GT(r.medianSeconds, 0.0) << r.key();
        EXPECT_LE(r.minSeconds, r.medianSeconds);
        EXPECT_LE(r.medianSeconds, r.maxSeconds);
    }
    // The 2QAN row carries the per-pass breakdown; mapping dominates.
    EXPECT_EQ(rows[0].backend, "2qan");
    EXPECT_GT(rows[0].mappingSeconds, 0.0);
}

TEST(Bench, SimCasesProduceThroughputRows)
{
    SweepSpec s;
    s.experiment = "sim_bench_test";
    s.simCases = {{"traj", 6, 1, 2, 0},
                  {"traj", 6, 1, 2, 0, true},
                  {"state", 6, 1, 0, 0}};

    BatchCompiler bc({2});
    std::vector<BenchRow> rows = runBench(s, bc, {0, 2});
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].backend, "engine");
    EXPECT_EQ(rows[1].backend, "engine-scalar");
    EXPECT_EQ(rows[2].benchmark, "state");
    for (const auto &r : rows) {
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.device, "simulator");
        EXPECT_EQ(r.gateset, "exact");
        EXPECT_GT(r.medianSeconds, 0.0) << r.key();
    }
    // Dispatched and scalar rows of the same case stay distinct keys
    // (the baseline comparison matches on key()).
    EXPECT_NE(rows[0].key(), rows[1].key());

    // Rows survive the BENCH_*.json round trip.
    std::istringstream in(benchJson("sim_bench_test", {0, 2}, 2,
                                    rows));
    std::vector<BenchRow> back = parseBenchJson(in);
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(back[i].key(), rows[i].key());
}

TEST(Bench, SmokePresetCarriesASimRow)
{
    SweepSpec s = sweepPreset("smoke");
    ASSERT_FALSE(s.simCases.empty());
    EXPECT_FALSE(s.simCases[0].forceScalar);
    EXPECT_GT(s.simCases[0].shots, 0);
}

TEST(Bench, FidelityPresetIsSimOnly)
{
    SweepSpec s = sweepPreset("fidelity");
    EXPECT_TRUE(s.devices.empty());
    ASSERT_EQ(s.simCases.size(), 2u);
    // The acceptance microbenchmark: 20-qubit p=1 trajectory batch,
    // then the noiseless pass, both on the dispatched engine.
    EXPECT_EQ(s.simCases[0].n, 20);
    EXPECT_EQ(s.simCases[0].shots, 64);
    EXPECT_FALSE(s.simCases[0].forceScalar);
    EXPECT_EQ(s.simCases[1].shots, 0);
    EXPECT_FALSE(s.simCases[1].forceScalar);
}

TEST(Bench, SpecParserReadsSimLines)
{
    std::istringstream in(
        "experiment = x\n"
        "sim = fast 8 1 16\n"
        "sim = slow 10 2 0 3\n");
    SweepSpec s = parseSweepSpec(in);
    ASSERT_EQ(s.simCases.size(), 2u);
    EXPECT_EQ(s.simCases[0].label, "fast");
    EXPECT_EQ(s.simCases[0].n, 8);
    EXPECT_EQ(s.simCases[0].layers, 1);
    EXPECT_EQ(s.simCases[0].shots, 16);
    EXPECT_EQ(s.simCases[0].instance, 0);
    EXPECT_FALSE(s.simCases[0].forceScalar);
    EXPECT_EQ(s.simCases[1].instance, 3);
    EXPECT_FALSE(s.simCases[1].forceScalar);

    std::istringstream bad("sim = onlytwo 4\n");
    EXPECT_THROW(parseSweepSpec(bad), std::invalid_argument);
}

TEST(Bench, SimdPresetPairsScalarAndDispatchedRows)
{
    SweepSpec s = sweepPreset("simd");
    EXPECT_TRUE(s.simdPairedCompile);
    EXPECT_FALSE(s.devices.empty());
    ASSERT_EQ(s.simCases.size(), 4u);
    // Each workload appears dispatched first, scalar-forced second.
    for (size_t i = 0; i < s.simCases.size(); i += 2) {
        EXPECT_EQ(s.simCases[i].label, s.simCases[i + 1].label);
        EXPECT_FALSE(s.simCases[i].forceScalar);
        EXPECT_TRUE(s.simCases[i + 1].forceScalar);
    }
}

TEST(Bench, SpecParserReadsScalarToken)
{
    std::istringstream in(
        "sim = pinned 8 1 4 scalar\n"
        "sim = inst 10 1 0 3 scalar\n");
    SweepSpec s = parseSweepSpec(in);
    ASSERT_EQ(s.simCases.size(), 2u);
    EXPECT_TRUE(s.simCases[0].forceScalar);
    EXPECT_EQ(s.simCases[1].instance, 3);
    EXPECT_TRUE(s.simCases[1].forceScalar);

    // A leftover 'reference' token is rejected next to 'scalar' too.
    std::istringstream bad("sim = both 8 1 4 reference scalar\n");
    EXPECT_THROW(parseSweepSpec(bad), std::invalid_argument);
}

TEST(Bench, SpecParserRejectsReferenceToken)
{
    // The pre-engine simulator is a test oracle, not a bench target:
    // a 'reference' sim line is a spec error.
    std::istringstream in("sim = x 8 1 4 reference\n");
    EXPECT_THROW(parseSweepSpec(in), std::invalid_argument);
}

TEST(Bench, FiguresPresetCoversFigures7To12)
{
    // Fig. 7/8/9 on each device's paper gate set, Fig. 11/12 on
    // Sycamore and Aspen with CZ.
    SweepSpec s = sweepPreset("figures");
    std::vector<std::pair<std::string, std::string>> got;
    for (const auto &d : s.devices)
        got.emplace_back(d.name, d.gateset);
    const std::vector<std::pair<std::string, std::string>> want = {
        {"sycamore", ""}, {"aspen", ""}, {"montreal", ""},
        {"sycamore", "cz"}, {"aspen", "cz"}};
    EXPECT_EQ(got, want);

    // The expanded grid resolves those five (device, gate set)
    // pairs, the paper gate sets included.
    ExpandedSweep ex = expandSweep(s);
    std::set<std::pair<std::string, std::string>> pairs;
    for (const auto &r : ex.rows)
        pairs.emplace(r.device, r.gateset);
    EXPECT_EQ(pairs.size(), 5u);
    EXPECT_TRUE(pairs.count({"sycamore54", "CZ"}));
    EXPECT_TRUE(pairs.count({"aspen16", "CZ"}));
}

TEST(Bench, ScalarForcedSimRowsCarryEngineScalarBackend)
{
    SweepSpec s;
    s.experiment = "simd_pair_test";
    s.simCases = {{"t", 6, 1, 2, 0, false},
                  {"t", 6, 1, 2, 0, true}};
    BatchCompiler bc({1});
    std::vector<BenchRow> rows = runBench(s, bc, {0, 1});
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].backend, "engine");
    EXPECT_EQ(rows[1].backend, "engine-scalar");
    EXPECT_NE(rows[0].key(), rows[1].key());
    for (const auto &r : rows) {
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_GT(r.medianSeconds, 0.0);
    }
}

TEST(Bench, SimdPairedCompileAppendsScalarSuffixedRows)
{
    SweepSpec s = tinySpec();
    s.simdPairedCompile = true;
    BatchCompiler bc({1});
    std::vector<BenchRow> rows = runBench(s, bc, {0, 1});
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].backend, "2qan");
    EXPECT_EQ(rows[1].backend, "tket_like");
    EXPECT_EQ(rows[2].backend, "2qan-scalar");
    EXPECT_EQ(rows[3].backend, "tket_like-scalar");
    for (const auto &r : rows)
        EXPECT_TRUE(r.ok()) << r.key() << ": " << r.error;
}

TEST(Bench, JsonHeaderRecordsTheDispatchedIsa)
{
    std::string json = benchJson("unit", {1, 1}, 1, {});
    EXPECT_NE(json.find("\"simd\":\""), std::string::npos);
    // Header-only fields must not confuse the row reader.
    std::istringstream in(json);
    EXPECT_TRUE(parseBenchJson(in).empty());
}

TEST(Bench, RejectsBadRepeatCounts)
{
    BatchCompiler bc({1});
    EXPECT_THROW(runBench(tinySpec(), bc, {0, 0}),
                 std::invalid_argument);
    EXPECT_THROW(runBench(tinySpec(), bc, {-1, 2}),
                 std::invalid_argument);
}

TEST(Bench, JsonRoundTripsEveryField)
{
    std::vector<BenchRow> rows = {rowWith("2qan", 0.0125),
                                  rowWith("tket_like", 0.001)};
    rows[0].mappingSeconds = 0.011;
    rows[0].routingSeconds = 0.0009;
    rows[0].schedulingSeconds = 0.0004;

    std::string json = benchJson("unit", {1, 5}, 2, rows);
    EXPECT_NE(json.find("\"schema\":\"tqan-bench-v1\""),
              std::string::npos);

    std::istringstream in(json);
    std::vector<BenchRow> back = parseBenchJson(in);
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(back[i].key(), rows[i].key());
        EXPECT_NEAR(back[i].medianSeconds, rows[i].medianSeconds,
                    1e-9);
        EXPECT_NEAR(back[i].minSeconds, rows[i].minSeconds, 1e-9);
        EXPECT_NEAR(back[i].maxSeconds, rows[i].maxSeconds, 1e-9);
        EXPECT_NEAR(back[i].mappingSeconds, rows[i].mappingSeconds,
                    1e-9);
        EXPECT_TRUE(back[i].ok());
    }
}

TEST(Bench, RowJsonRoundTripsEveryEscapedByte)
{
    // Every escape service::jsonEscape() writes, plus a byte above
    // ASCII, in each string field of both row codecs.
    const std::string nasty = std::string("q\"b\\s\b f\f n\n r\r t\t ") +
                              '\x01' + '\x1f' + '\x7f' + '\x80' +
                              '\xff' + " line one\nline two\ttab";

    SweepRow s;
    s.experiment = nasty;
    s.benchmark = "NNN_" + nasty;
    s.device = "grid:3x3" + nasty;
    s.gateset = "cnot" + nasty;
    s.backend = "2qan" + nasty;
    s.nqubits = 6;
    s.error = nasty;
    SweepRow sb = sweepRowFromJson(toJson(s));
    EXPECT_EQ(sb.experiment, s.experiment);
    EXPECT_EQ(sb.benchmark, s.benchmark);
    EXPECT_EQ(sb.device, s.device);
    EXPECT_EQ(sb.gateset, s.gateset);
    EXPECT_EQ(sb.backend, s.backend);
    EXPECT_EQ(sb.error, s.error);

    BenchRow b = rowWith("2qan" + nasty, 0.01);
    b.benchmark += nasty;
    b.device += nasty;
    b.gateset += nasty;
    b.error = nasty;
    std::string line = benchRowJson(b);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    BenchRow bb = benchRowFromJson(line);
    EXPECT_EQ(bb.benchmark, b.benchmark);
    EXPECT_EQ(bb.device, b.device);
    EXPECT_EQ(bb.gateset, b.gateset);
    EXPECT_EQ(bb.backend, b.backend);
    EXPECT_EQ(bb.error, b.error);

    // Printable ASCII other than the quote and backslash is written
    // as is, so golden and BENCH files keep their bytes.
    std::string printable;
    for (char c = ' '; c <= '~'; ++c)
        if (c != '"' && c != '\\')
            printable += c;
    b.error = printable;
    EXPECT_NE(benchRowJson(b).find("\"error\":\"" + printable + "\""),
              std::string::npos);
}

TEST(Bench, ParseRejectsMalformedRowLines)
{
    std::istringstream in(
        "{\"rows\":[\n"
        "{\"benchmark\":\"X\",\"median_seconds\":0.5}\n"
        "]}\n");
    EXPECT_THROW(parseBenchJson(in), std::invalid_argument);
}

TEST(Bench, CompareFlagsOnlyRegressionsBeyondTolerance)
{
    std::vector<BenchRow> base = {rowWith("2qan", 0.010),
                                  rowWith("tket_like", 0.002)};
    std::vector<BenchRow> cur = {rowWith("2qan", 0.0124),
                                 rowWith("tket_like", 0.0026)};

    // 2qan +24% passes at 25% tolerance, tket_like +30% fails.
    auto reg = compareBench(base, cur, 0.25);
    ASSERT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg[0].key, rowWith("tket_like", 0).key());
    EXPECT_NEAR(reg[0].ratio, 1.3, 1e-9);

    // Tighter tolerance catches both.
    EXPECT_EQ(compareBench(base, cur, 0.1).size(), 2u);
}

TEST(Bench, CompareIgnoresNewAndMissingKeys)
{
    std::vector<BenchRow> base = {rowWith("2qan", 0.010)};
    std::vector<BenchRow> cur = {rowWith("qiskit_sabre", 99.0)};
    EXPECT_TRUE(compareBench(base, cur, 0.25).empty());
}

TEST(Bench, CompareIgnoresSubMillisecondNoiseRows)
{
    // A 20 us row doubling is clock jitter, not a regression; the
    // gate only applies above the minSeconds floor.
    std::vector<BenchRow> base = {rowWith("2qan", 20e-6)};
    std::vector<BenchRow> cur = {rowWith("2qan", 40e-6)};
    EXPECT_TRUE(compareBench(base, cur, 0.25).empty());
    EXPECT_EQ(compareBench(base, cur, 0.25, /*minSeconds=*/1e-6)
                  .size(),
              1u);
}

TEST(Bench, CompareSkipsFailedRows)
{
    std::vector<BenchRow> base = {rowWith("2qan", 0.010)};
    std::vector<BenchRow> cur = {rowWith("2qan", 99.0)};
    cur[0].error = "exploded";
    EXPECT_TRUE(compareBench(base, cur, 0.25).empty());
}

namespace {

/** A minimal well-formed row line with substitutable numeric
 * tokens (parseBenchJson keys off "median_seconds"). */
std::string
rowLine(const std::string &nq, const std::string &inst,
        const std::string &med)
{
    return "{\"benchmark\":\"X\",\"device\":\"d\","
           "\"gateset\":\"cnot\",\"compiler\":\"2qan\","
           "\"nqubits\":" + nq + ",\"instance\":" + inst +
           ",\"median_seconds\":" + med + "}\n";
}

} // namespace

TEST(Bench, ParseRejectsJunkTailedNumbers)
{
    // stoi/stod prefix parses used to accept these silently; a
    // junk-tailed token must fail, never truncate.
    for (const char *bad : {"4x", "4.5", "0x4", ""}) {
        std::istringstream in(rowLine(bad, "0", "0.5"));
        EXPECT_THROW(parseBenchJson(in), std::invalid_argument)
            << "nqubits token '" << bad << "' was accepted";
    }
    for (const char *bad : {"0.5s", "1e", "nan", "inf", "-0.5"}) {
        std::istringstream in(rowLine("4", "0", bad));
        EXPECT_THROW(parseBenchJson(in), std::invalid_argument)
            << "median token '" << bad << "' was accepted";
    }
}

TEST(Bench, ParseRejectsOutOfDomainValues)
{
    for (const char *bad : {"0", "-3"}) {  // nqubits >= 1
        std::istringstream in(rowLine(bad, "0", "0.5"));
        EXPECT_THROW(parseBenchJson(in), std::invalid_argument);
    }
    std::istringstream in(rowLine("4", "-1", "0.5"));  // inst >= 0
    EXPECT_THROW(parseBenchJson(in), std::invalid_argument);
}

TEST(Bench, ParseErrorNamesTheFieldAndLine)
{
    std::istringstream in("{\"rows\":[\n" +
                          rowLine("4", "0", "0.5junk") + "]}\n");
    try {
        parseBenchJson(in);
        FAIL() << "junk-tailed median_seconds was accepted";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("median_seconds"), std::string::npos)
            << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
}

TEST(Bench, ParseStillAcceptsValidOptionalFields)
{
    std::istringstream in(rowLine("4", "0", "0.5"));
    std::vector<BenchRow> rows = parseBenchJson(in);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].nqubits, 4);
    EXPECT_NEAR(rows[0].medianSeconds, 0.5, 1e-12);
}
