#include "core/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/sweep_internal.h"
#include "service/json.h"
#include "verify/check.h"

namespace tqan {
namespace core {

namespace {

/** Compile + (optionally) verify one grid row in place.  A backend
 * error lands in row->error — a scored failure row, not a shard
 * failure; shard failures (retry, quarantine) are reserved for
 * infrastructure faults. */
void
scoreSweepShard(const BatchCompiler &bc, const BatchJob &bj,
                bool verifyRow, SweepRow *row)
{
    BatchJobResult res = bc.runOne(bj);
    row->metrics = res.metrics;
    row->seconds = res.seconds;
    const auto &times = res.result.passTimes;
    row->mappingSeconds = passSeconds(times, "mapping");
    row->routingSeconds = passSeconds(times, "routing");
    row->schedulingSeconds = passSeconds(times, "scheduling");
    row->error = res.error;
    if (verifyRow && row->ok()) {
        verify::CompilationCheck chk =
            verify::checkCompilation(*bj.job.step, res.result);
        // skipped == oracle-unavailable: not a verdict, so the row
        // is neither failed nor certified; only real refutations
        // set the error.
        if (!chk.ok && !chk.skipped)
            row->error = "verification failed: " + chk.error;
    }
}

} // namespace

std::string
sweepConfigTag(const char *kind, const SweepSpec &spec)
{
    std::ostringstream os;
    os << kind << "-v1 exp=" << spec.experiment
       << " seed=" << spec.seed << " trials=" << spec.trials
       << " router=" << spec.router
       << " verify=" << (spec.verify ? 1 : 0) << " bench=";
    for (Benchmark b : spec.benchmarks)
        os << benchmarkName(b) << ';';
    os << " dev=";
    for (const auto &d : spec.devices)
        os << d.name << '@' << d.gateset << ';';
    os << " be=";
    for (const auto &b : spec.backends)
        os << b << ';';
    os << " sizes=";
    for (int n : spec.sizes)
        os << n << ';';
    os << " inst=" << spec.instances;
    for (const auto &kv : spec.sizesFor) {
        os << " sizes." << benchmarkName(kv.first) << '=';
        for (int n : kv.second)
            os << n << ';';
    }
    for (const auto &kv : spec.instancesFor)
        os << " inst." << benchmarkName(kv.first) << '='
           << kv.second;
    for (const auto &kv : spec.backendsFor) {
        os << " be." << benchmarkName(kv.first) << '=';
        for (const auto &b : kv.second)
            os << b << ';';
    }
    return os.str();
}

SweepCampaignOutcome
runSweepCampaign(const SweepSpec &spec, const BatchCompiler &bc,
                 const robust::CampaignOptions &opt)
{
    ExpandedSweep ex = expandSweep(spec);
    robust::CampaignOptions co = opt;
    co.configTag = sweepConfigTag("sweep", spec);
    SweepCampaignOutcome out;
    runCampaignPhase<SweepRow>(
        co, ex.jobs.size(),
        [&ex](std::uint64_t shard) { return ex.rows[shard]; },
        [&](std::uint64_t shard, SweepRow *row) {
            scoreSweepShard(bc, ex.jobs[shard], spec.verify, row);
        },
        "", "", opt.workers > 0 ? opt.workers : bc.options().jobs,
        &out.rows, &out.tallies);
    return out;
}

std::vector<SweepRow>
runSweep(const SweepSpec &spec, const BatchCompiler &bc)
{
    robust::CampaignOptions co;
    co.workers = bc.options().jobs;
    return runSweepCampaign(spec, bc, co).rows;
}

std::string
sweepCsvHeader()
{
    return "experiment,benchmark,device,gateset,compiler,nqubits,"
           "instance,swaps,dressed,native2q,depth2q,depthall,"
           "native2q_nomap,depth2q_nomap,depthall_nomap";
}

std::string
toCsv(const SweepRow &row)
{
    const CompilationMetrics &m = row.metrics;
    char buf[256];
    if (row.ok())
        std::snprintf(buf, sizeof(buf),
                      ",%d,%d,%d,%d,%d,%d,%d,%d", m.swaps,
                      m.dressed, m.native2q, m.depth2q, m.depthAll,
                      m.native2qNoMap, m.depth2qNoMap,
                      m.depthAllNoMap);
    else
        std::snprintf(buf, sizeof(buf),
                      ",-1,-1,-1,-1,-1,-1,-1,-1");
    return row.experiment + "," + row.benchmark + "," + row.device +
           "," + row.gateset + "," + row.backend + "," +
           std::to_string(row.nqubits) + "," +
           std::to_string(row.instance) + buf;
}

std::string
toJson(const SweepRow &row)
{
    const CompilationMetrics &m = row.metrics;
    std::ostringstream os;
    os << "{\"experiment\":\"" << service::jsonEscape(row.experiment)
       << "\",\"benchmark\":\"" << service::jsonEscape(row.benchmark)
       << "\",\"device\":\"" << service::jsonEscape(row.device)
       << "\",\"gateset\":\"" << service::jsonEscape(row.gateset)
       << "\",\"compiler\":\"" << service::jsonEscape(row.backend)
       << "\",\"nqubits\":" << row.nqubits
       << ",\"instance\":" << row.instance
       << ",\"swaps\":" << m.swaps << ",\"dressed\":" << m.dressed
       << ",\"native2q\":" << m.native2q
       << ",\"depth2q\":" << m.depth2q
       << ",\"depthall\":" << m.depthAll
       << ",\"native2q_nomap\":" << m.native2qNoMap
       << ",\"depth2q_nomap\":" << m.depth2qNoMap
       << ",\"depthall_nomap\":" << m.depthAllNoMap
       << ",\"seconds\":" << row.seconds
       << ",\"mapping_seconds\":" << row.mappingSeconds
       << ",\"routing_seconds\":" << row.routingSeconds
       << ",\"scheduling_seconds\":" << row.schedulingSeconds
       << ",\"error\":\"" << service::jsonEscape(row.error) << "\"}";
    return os.str();
}

std::vector<SweepTableRow>
aggregateTables(const std::vector<SweepRow> &rows,
                const std::string &reference,
                const std::vector<std::string> &baselines)
{
    // (benchmark, device, gateset) -> backend -> config -> metrics,
    // keeping first-appearance order of the groups for the output.
    struct Group
    {
        std::string benchmark, device, gateset;
        std::map<std::string,
                 std::map<std::string, const SweepRow *>>
            byBackend;  // backend -> config key -> row
    };
    std::vector<Group> groups;
    std::map<std::string, size_t> index;
    for (const SweepRow &r : rows) {
        if (!r.ok())
            continue;
        std::string key =
            r.benchmark + "\x1f" + r.device + "\x1f" + r.gateset;
        auto it = index.find(key);
        if (it == index.end()) {
            it = index.emplace(key, groups.size()).first;
            groups.push_back(
                {r.benchmark, r.device, r.gateset, {}});
        }
        std::string cfg = std::to_string(r.nqubits) + "/" +
                          std::to_string(r.instance);
        groups[it->second].byBackend[r.backend][cfg] = &r;
    }

    auto ratio = [](double num, double den) {
        if (den <= 0.0)
            return num > 0.0
                       ? std::numeric_limits<double>::infinity()
                       : 1.0;
        return num / den;
    };
    auto avgMax = [](const std::vector<double> &v) {
        double sum = 0.0, mx = 0.0;
        int finite = 0;
        for (double x : v)
            if (std::isfinite(x)) {
                sum += x;
                mx = std::max(mx, x);
                ++finite;
            }
        if (finite == 0)
            return std::make_pair(
                std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::infinity());
        return std::make_pair(sum / finite, mx);
    };

    std::vector<SweepTableRow> out;
    for (const std::string &baseline : baselines) {
        for (const Group &g : groups) {
            auto refIt = g.byBackend.find(reference);
            auto baseIt = g.byBackend.find(baseline);
            if (refIt == g.byBackend.end() ||
                baseIt == g.byBackend.end())
                continue;
            std::vector<double> swaps, gates, depth;
            for (const auto &[cfg, ref] : refIt->second) {
                auto b = baseIt->second.find(cfg);
                if (b == baseIt->second.end())
                    continue;
                const CompilationMetrics &mb = b->second->metrics;
                const CompilationMetrics &mr = ref->metrics;
                swaps.push_back(ratio(mb.swaps, mr.swaps));
                gates.push_back(
                    ratio(mb.gateOverhead(), mr.gateOverhead()));
                depth.push_back(ratio(mb.depth2qOverhead(),
                                      mr.depth2qOverhead()));
            }
            if (swaps.empty())
                continue;
            const char *metrics[] = {"swaps", "gates", "depth2q"};
            const std::vector<double> *vals[] = {&swaps, &gates,
                                                 &depth};
            for (int k = 0; k < 3; ++k) {
                auto [avg, mx] = avgMax(*vals[k]);
                out.push_back({"vs_" + baseline, baseline,
                               g.benchmark, g.device, g.gateset,
                               metrics[k], avg, mx});
            }
        }
    }
    return out;
}

std::string
sweepTableCsvHeader()
{
    return "table,baseline,benchmark,device,gateset,metric,"
           "avg_reduction,max_reduction";
}

std::string
toCsv(const SweepTableRow &row)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",%.2f,%.2f", row.avg, row.max);
    return row.table + "," + row.baseline + "," + row.benchmark +
           "," + row.device + "," + row.gateset + "," + row.metric +
           buf;
}

namespace {

/** Typed reads of one row object parsed by service::parseJsonObject.
 * Every error names the row (`where`, with its line in a bench file)
 * and the field; optional fields leave `*out` as it was when absent. */
class RowFields
{
  public:
    RowFields(std::string where, const std::string &line)
        : where_(std::move(where))
    {
        try {
            obj_ = service::parseJsonObject(line);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(where_ + ": " + e.what());
        }
    }

    /** A string; a required one must also be non-empty. */
    std::string text(const char *key, bool required = false) const
    {
        const service::JsonValue *v = find(key, Kind::String, required);
        if (v && required && v->text.empty())
            fail(key, "is empty");
        return v ? v->text : std::string();
    }

    void integer(const char *key, int minValue, int *out,
                 bool required = true) const
    {
        const service::JsonValue *v = find(key, Kind::Number, required);
        if (!v)
            return;
        if (!service::parseI32(v->text, out))
            fail(key, "is not a 32-bit integer: '" + v->text + "'");
        if (*out < minValue)
            fail(key, "must be >= " + std::to_string(minValue) +
                          ": '" + v->text + "'");
    }

    /** A time in seconds: finite and >= 0. */
    void seconds(const char *key, double *out,
                 bool required = true) const
    {
        const service::JsonValue *v = find(key, Kind::Number, required);
        if (v && (!service::parseF64(v->text, out) || *out < 0.0))
            fail(key, "must be a finite time in seconds >= 0: '" +
                          v->text + "'");
    }

  private:
    using Kind = service::JsonValue::Kind;

    const service::JsonValue *find(const char *key, Kind kind,
                                   bool required) const
    {
        auto it = obj_.find(key);
        if (it == obj_.end()) {
            if (required)
                fail(key, "is missing");
            return nullptr;
        }
        if (it->second.kind != kind)
            fail(key, kind == Kind::String ? "is not a string"
                                           : "is not a number");
        return &it->second;
    }

    [[noreturn]] void fail(const char *key, const std::string &why) const
    {
        throw std::invalid_argument(where_ + ": field \"" + key +
                                    "\" " + why);
    }

    std::string where_;
    service::JsonObject obj_;
};

BenchRow
benchRowFrom(const RowFields &f)
{
    BenchRow b;
    b.benchmark = f.text("benchmark", true);
    b.device = f.text("device", true);
    b.gateset = f.text("gateset");
    b.backend = f.text("compiler", true);
    f.integer("nqubits", 1, &b.nqubits);
    f.integer("instance", 0, &b.instance);
    f.seconds("median_seconds", &b.medianSeconds);
    f.seconds("min_seconds", &b.minSeconds, false);
    f.seconds("max_seconds", &b.maxSeconds, false);
    f.seconds("mapping_seconds", &b.mappingSeconds, false);
    f.seconds("routing_seconds", &b.routingSeconds, false);
    f.seconds("scheduling_seconds", &b.schedulingSeconds, false);
    // Optional quality fields (absent in older bench files;
    // -1 = not applicable).
    f.integer("swaps", -1, &b.swaps, false);
    f.integer("depth2q", -1, &b.depth2q, false);
    b.error = f.text("error");
    return b;
}

} // namespace

BenchRow
benchRowFromJson(const std::string &line)
{
    return benchRowFrom(RowFields("bench row json", line));
}

SweepRow
sweepRowFromJson(const std::string &line)
{
    RowFields f("sweep row json", line);
    SweepRow r;
    r.experiment = f.text("experiment");
    r.benchmark = f.text("benchmark", true);
    r.device = f.text("device", true);
    r.gateset = f.text("gateset");
    r.backend = f.text("compiler", true);
    f.integer("nqubits", 1, &r.nqubits);
    f.integer("instance", 0, &r.instance);
    // toJson() writes every metric, so each one is required.
    const int anyInt = std::numeric_limits<int>::min();
    CompilationMetrics &m = r.metrics;
    f.integer("swaps", anyInt, &m.swaps);
    f.integer("dressed", anyInt, &m.dressed);
    f.integer("native2q", anyInt, &m.native2q);
    f.integer("depth2q", anyInt, &m.depth2q);
    f.integer("depthall", anyInt, &m.depthAll);
    f.integer("native2q_nomap", anyInt, &m.native2qNoMap);
    f.integer("depth2q_nomap", anyInt, &m.depth2qNoMap);
    f.integer("depthall_nomap", anyInt, &m.depthAllNoMap);
    f.seconds("seconds", &r.seconds);
    f.seconds("mapping_seconds", &r.mappingSeconds);
    f.seconds("routing_seconds", &r.routingSeconds);
    f.seconds("scheduling_seconds", &r.schedulingSeconds);
    r.error = f.text("error");
    return r;
}

std::vector<BenchRow>
parseBenchJson(std::istream &in)
{
    std::vector<BenchRow> rows;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find("\"median_seconds\"") == std::string::npos)
            continue;  // header / footer lines
        // Row lines are array elements: drop the one separator.
        size_t last = line.find_last_not_of(" \t\r");
        if (last != std::string::npos && line[last] == ',')
            line.erase(last, 1);
        rows.push_back(benchRowFrom(RowFields(
            "bench json line " + std::to_string(lineno), line)));
    }
    return rows;
}

} // namespace core
} // namespace tqan
