/**
 * @file
 * tqan-sweep -- batch sweep runner.
 *
 * Expands a declarative sweep spec (or a built-in preset) into a
 * batch of compilation jobs, runs them on the shared thread pool
 * (--jobs caps the slots) and prints one CSV/JSON row per job.  The paper's whole
 * result grid reproduces with one command:
 *
 *   tqan-sweep --preset table1_table2 --jobs 8 --tables
 *
 * prints the Table I/II reduction grid; `--preset figures` prints
 * the Fig. 7/8/9/11/12 rows, and `--bench` on a spec times each
 * job's mapping, routing and scheduling (the Sec. V-D runtime
 * evaluation).  Results are bit-identical for every --jobs value
 * (each job derives its own seed).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/env.h"
#include "core/profile.h"
#include "core/router_registry.h"
#include "core/sweep.h"
#include "robust/fault.h"
#include "robust/runner.h"
#include "service/json.h"
#include "simd/dispatch.h"

using namespace tqan;

namespace {

std::string
joined(const std::vector<std::string> &names, const char *sep)
{
    std::string s;
    for (const auto &n : names)
        s += (s.empty() ? "" : sep) + n;
    return s;
}

void
reportCampaign(const core::CampaignTallies &t,
               const std::string &checkpoint)
{
    if (t.retried || t.restored)
        std::fprintf(stderr,
                     "tqan-sweep: campaign: %llu shards restored "
                     "from checkpoint, %llu retries\n",
                     static_cast<unsigned long long>(t.restored),
                     static_cast<unsigned long long>(t.retried));
    if (t.quarantined)
        std::fprintf(stderr,
                     "tqan-sweep: %llu shards quarantined after "
                     "retries (their rows carry errors)\n",
                     static_cast<unsigned long long>(t.quarantined));
    if (t.interrupted)
        std::fprintf(
            stderr,
            "tqan-sweep: campaign interrupted with %llu shards "
            "left; resume with --resume %s\n",
            static_cast<unsigned long long>(t.skipped),
            checkpoint.empty() ? "FILE (rerun with --checkpoint)"
                               : checkpoint.c_str());
}

void
printHelp(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: tqan-sweep <spec-file|-> [options]\n"
        "       tqan-sweep --preset NAME [options]\n"
        "\n"
        "Expand a sweep spec into (benchmark x size x instance x\n"
        "device x backend) compilation jobs, run them on one\n"
        "shared thread pool (--jobs caps the slots) and print one\n"
        "row per job.  Rows are bit-identical for every --jobs\n"
        "value.\n"
        "\n"
        "options:\n"
        "  --preset NAME     built-in sweep: %s\n"
        "  --router R        route every job with this registered\n"
        "                    core router (%s); overrides the spec's\n"
        "                    `router =` line.  Backends that pin a\n"
        "                    router (2qan_rrr) are unaffected\n"
        "  --jobs N          most jobs compiled at once, on one\n"
        "                    shared pool (default 1)\n"
        "  --format F        csv | json (default csv)\n"
        "  --tables          also print the Table I/II aggregate\n"
        "                    grid (each baseline vs 2qan)\n"
        "  --tables-only     print only the aggregate grid\n"
        "  --verify          end-to-end verify every ok row\n"
        "                    (un-map + operator multiset + unitary\n"
        "                    oracle); mismatches fail the row.  The\n"
        "                    'verify' preset has this on already\n"
        "  --profile         print the profiling report (wall time\n"
        "                    per pass / backend) to stderr\n"
        "  --checkpoint FILE journal finished jobs here; SIGINT\n"
        "                    stops gracefully (exit 5) and --resume\n"
        "                    continues with byte-identical output\n"
        "  --resume FILE     resume from (and keep journaling to)\n"
        "                    FILE\n"
        "  --retries N       extra attempts before a job is\n"
        "                    quarantined (default 2)\n"
        "  --version         print the version, detected CPU caps\n"
        "                    and per-kernel SIMD dispatch, then "
        "exit\n"
        "  --spec-help       describe the sweep-spec format\n"
        "  --help            show this help and exit\n"
        "\n"
        "benchmark mode (perf-regression CI):\n"
        "  --bench           time the grid instead of printing rows:\n"
        "                    run it --warmup un-timed + --repeat\n"
        "                    timed times and write per-job medians\n"
        "                    (with the mapping/routing/scheduling\n"
        "                    split) as JSON to --out.  Specs may add\n"
        "                    simulation-throughput rows (`sim =`\n"
        "                    lines; the `fidelity` preset is\n"
        "                    sim-only and times the QAOA trajectory\n"
        "                    batch and a noiseless pass on the\n"
        "                    engine; the `simd` preset pairs\n"
        "                    dispatched vs scalar-forced rows for\n"
        "                    the SIMD speedup record)\n"
        "  --warmup N        un-timed warmup runs (default 1)\n"
        "  --repeat N        timed runs (default 5)\n"
        "  --out FILE        bench JSON path (default '-' =\n"
        "                    stdout, the only thing bench mode\n"
        "                    prints there)\n"
        "  --baseline FILE   compare medians against a previous\n"
        "                    bench JSON; exit 3 when any job is\n"
        "                    slower than baseline * (1 + tolerance)\n"
        "                    (default 0.25, override with\n"
        "                    TQAN_BENCH_TOLERANCE; rows under 0.1 ms\n"
        "                    are never gated — clock jitter).\n"
        "                    Refresh with TQAN_UPDATE_BASELINE=1.\n",
        joined(core::sweepPresetNames(), " | ").c_str(),
        joined(core::routerNames(), " | ").c_str());
}

int
runBenchMode(const core::SweepSpec &spec, int jobs,
             const core::BenchOptions &bo, const std::string &outFile,
             const std::string &baselineFile,
             const robust::CampaignOptions &co)
{
    core::BatchCompiler bc({jobs});
    core::BenchCampaignOutcome outcome =
        core::runBenchCampaign(spec, bc, bo, co);
    reportCampaign(outcome.tallies, co.checkpoint);
    if (outcome.tallies.interrupted)
        // Resumable: no partial bench file, no baseline gate.
        return robust::kInterruptedExit;
    std::vector<core::BenchRow> &rows = outcome.rows;
    std::string json =
        core::benchJson(spec.experiment, bo, jobs, rows);

    if (outFile == "-") {
        std::fputs(json.c_str(), stdout);
    } else {
        std::ofstream out(outFile);
        if (!out)
            throw std::runtime_error("cannot write " + outFile);
        out << json;
        std::fprintf(stderr, "tqan-sweep: wrote %zu bench rows to %s\n",
                     rows.size(), outFile.c_str());
    }

    int failed = 0;
    for (const auto &row : rows)
        if (!row.ok()) {
            ++failed;
            std::fprintf(stderr, "tqan-sweep: %s failed: %s\n",
                         row.key().c_str(), row.error.c_str());
        }
    if (failed)
        return 1;
    if (baselineFile.empty())
        return 0;

    if (std::getenv("TQAN_UPDATE_BASELINE") != nullptr) {
        std::ofstream out(baselineFile);
        if (!out)
            throw std::runtime_error("cannot write " + baselineFile);
        out << json;
        std::fprintf(stderr,
                     "tqan-sweep: refreshed baseline %s; review "
                     "with git diff\n",
                     baselineFile.c_str());
        return 0;
    }

    std::ifstream in(baselineFile);
    if (!in)
        throw std::runtime_error(
            "cannot read baseline " + baselineFile +
            " (create it with TQAN_UPDATE_BASELINE=1)");
    std::vector<core::BenchRow> base = core::parseBenchJson(in);

    // Warn-and-fallback like TQAN_SIMD: a typo'd env knob must not
    // change behavior silently, but should not kill the run either.
    double tolerance =
        core::envDoubleOr("TQAN_BENCH_TOLERANCE", 0.25);
    std::vector<core::BenchRegression> regressions =
        core::compareBench(base, rows, tolerance);
    for (const auto &r : regressions)
        std::fprintf(stderr,
                     "tqan-sweep: PERF REGRESSION %s: %.3f ms -> "
                     "%.3f ms (x%.2f > x%.2f allowed)\n",
                     r.key.c_str(), r.baselineSeconds * 1e3,
                     r.currentSeconds * 1e3, r.ratio,
                     1.0 + tolerance);
    if (regressions.empty()) {
        std::fprintf(stderr,
                     "tqan-sweep: no perf regression vs %s "
                     "(tolerance %.0f%%, %zu rows compared)\n",
                     baselineFile.c_str(), tolerance * 100.0,
                     base.size());
        return 0;
    }
    std::fprintf(stderr,
                 "tqan-sweep: %zu of %zu rows regressed; refresh "
                 "the baseline with TQAN_UPDATE_BASELINE=1 if "
                 "intentional\n",
                 regressions.size(), rows.size());
    return 3;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specFile, preset, format = "csv", router;
    std::string outFile = "-", baselineFile;
    int jobs = 1, warmup = 1, repeat = 5;
    bool tables = false, tablesOnly = false, bench = false,
         profile = false, verify = false;
    robust::CampaignOptions campaign;
    campaign.workers = 0;  // 0 = inherit --jobs (the batch width)

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "tqan-sweep: missing value for %s\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // After next(), argv[i] is the value that failed to parse.
        auto bad = [&]() {
            std::fprintf(stderr,
                         "tqan-sweep: bad value '%s' for %s\n",
                         argv[i], a.c_str());
            return 2;
        };
        if (a == "--help" || a == "-h") {
            printHelp(stdout);
            return 0;
        } else if (a == "--version") {
            std::fprintf(stdout, "tqan-sweep %s\n%s", TQAN_VERSION,
                         simd::dispatchSummary().c_str());
            return 0;
        } else if (a == "--spec-help") {
            std::fputs(core::sweepSpecHelp().c_str(), stdout);
            return 0;
        } else if (a == "--preset") {
            preset = next();
        } else if (a == "--router") {
            router = next();
            try {
                core::routerByName(router);  // flag-parse validation
            } catch (const std::exception &e) {
                std::fprintf(stderr, "tqan-sweep: %s\n", e.what());
                return 2;
            }
        } else if (a == "--jobs") {
            if (!service::parseI32(next(), &jobs))
                return bad();
        } else if (a == "--format") {
            format = next();
        } else if (a == "--tables") {
            tables = true;
        } else if (a == "--tables-only") {
            tables = tablesOnly = true;
        } else if (a == "--verify") {
            verify = true;
        } else if (a == "--bench") {
            bench = true;
        } else if (a == "--warmup") {
            if (!service::parseI32(next(), &warmup))
                return bad();
        } else if (a == "--repeat") {
            if (!service::parseI32(next(), &repeat))
                return bad();
        } else if (a == "--out") {
            outFile = next();
        } else if (a == "--baseline") {
            baselineFile = next();
        } else if (a == "--profile") {
            profile = true;
        } else if (a == "--checkpoint") {
            campaign.checkpoint = next();
        } else if (a == "--resume") {
            campaign.checkpoint = next();
            campaign.resume = true;
        } else if (a == "--retries") {
            if (!service::parseI32(next(), &campaign.retries))
                return bad();
        } else if (!a.empty() && a[0] == '-' && a != "-") {
            std::fprintf(stderr,
                         "tqan-sweep: unknown option '%s' (run "
                         "'tqan-sweep --help')\n",
                         a.c_str());
            return 2;
        } else if (specFile.empty()) {
            specFile = a;
        } else {
            std::fprintf(stderr,
                         "tqan-sweep: more than one spec file\n");
            return 2;
        }
    }
    if (format != "csv" && format != "json") {
        std::fprintf(stderr,
                     "tqan-sweep: bad --format '%s' (csv | json)\n",
                     format.c_str());
        return 2;
    }
    if (preset.empty() == specFile.empty()) {
        std::fprintf(stderr, "tqan-sweep: need a spec file or "
                             "--preset, not both or neither\n");
        printHelp(stderr);
        return 2;
    }
    if (jobs < 1) {
        std::fprintf(stderr, "tqan-sweep: --jobs must be >= 1\n");
        return 2;
    }
    if (bench && (repeat < 1 || warmup < 0)) {
        std::fprintf(stderr, "tqan-sweep: --repeat must be >= 1 and "
                             "--warmup >= 0\n");
        return 2;
    }
    if (campaign.retries < 0) {
        std::fprintf(stderr, "tqan-sweep: --retries must be >= 0\n");
        return 2;
    }

    core::profile::setEnabled(profile);
    if (robust::faultPlanArmed())
        std::fprintf(stderr, "tqan-sweep: fault plan armed: %s\n",
                     robust::faultPlanSummary().c_str());
    if (!campaign.checkpoint.empty())
        robust::installCampaignSignalHandlers();

    try {
        core::SweepSpec spec;
        if (!preset.empty()) {
            spec = core::sweepPreset(preset);
        } else if (specFile == "-") {
            spec = core::parseSweepSpec(std::cin);
        } else {
            std::ifstream f(specFile);
            if (!f)
                throw std::runtime_error("cannot open " + specFile);
            spec = core::parseSweepSpec(f);
        }
        if (verify)
            spec.verify = true;
        if (!router.empty())
            spec.router = router;

        if (bench) {
            int rc = runBenchMode(spec, jobs, {warmup, repeat},
                                  outFile, baselineFile, campaign);
            if (profile) {
                std::fprintf(stderr,
                             "profile: simd=%s caps=[%s]\n",
                             simd::activeIsaName(),
                             simd::hostCaps().str().c_str());
                std::fputs(core::profile::report().c_str(),
                           stderr);
            }
            return rc;
        }
        if (spec.devices.empty() && !spec.simCases.empty()) {
            std::fprintf(
                stderr,
                "tqan-sweep: this spec holds only simulation "
                "benchmark cases; run it with --bench\n");
            return 2;
        }

        core::BatchCompiler bc({jobs});
        core::SweepCampaignOutcome outcome =
            core::runSweepCampaign(spec, bc, campaign);
        reportCampaign(outcome.tallies, campaign.checkpoint);
        if (outcome.tallies.interrupted)
            // Resumable: print nothing partial; the journal holds
            // every finished row.
            return robust::kInterruptedExit;
        std::vector<core::SweepRow> &rows = outcome.rows;

        if (!tablesOnly) {
            if (format == "csv")
                std::printf("%s\n", core::sweepCsvHeader().c_str());
            for (const auto &row : rows)
                std::printf("%s\n",
                            (format == "csv" ? core::toCsv(row)
                                             : core::toJson(row))
                                .c_str());
        }

        int failed = 0;
        for (const auto &row : rows)
            if (!row.ok()) {
                ++failed;
                std::fprintf(stderr,
                             "tqan-sweep: %s/%s/%s n=%d i=%d "
                             "failed: %s\n",
                             row.benchmark.c_str(),
                             row.device.c_str(),
                             row.backend.c_str(), row.nqubits,
                             row.instance, row.error.c_str());
            }

        if (tables) {
            // Every non-reference backend in the sweep is a
            // baseline; vs_tket_like is the paper's Table I,
            // vs_qiskit_sabre its Table II.
            std::vector<std::string> baselines;
            for (const auto &row : rows)
                if (row.backend != "2qan" &&
                    std::find(baselines.begin(), baselines.end(),
                              row.backend) == baselines.end())
                    baselines.push_back(row.backend);
            std::printf("%s\n",
                        core::sweepTableCsvHeader().c_str());
            for (const auto &t :
                 core::aggregateTables(rows, "2qan", baselines))
                std::printf("%s\n", core::toCsv(t).c_str());
        }
        if (profile) {
            std::fprintf(stderr, "profile: simd=%s caps=[%s]\n",
                         simd::activeIsaName(),
                         simd::hostCaps().str().c_str());
            std::fputs(core::profile::report().c_str(), stderr);
        }
        return failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tqan-sweep: error: %s\n", e.what());
        return 1;
    }
}
