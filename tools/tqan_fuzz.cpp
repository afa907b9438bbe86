/**
 * @file
 * tqan-fuzz -- cross-backend differential fuzz harness CLI.
 *
 * Draws randomized 2-local scenarios (testgen), compiles each with
 * every registered backend, and end-to-end verifies every result
 * (verify::checkCompilation: un-map, layout, operator multiset,
 * unitary oracle, decomposition re-verify).  Failing cases are
 * shrunk to minimal reproducers and written as replayable spec
 * files; --replay re-runs one.  --mutate proves the oracle itself:
 * it corrupts one gate of each verified circuit and reports the
 * detection rate (CI gates on >= 95%).
 *
 *   tqan-fuzz --iterations 500 --jobs 8          # the CI gate
 *   tqan-fuzz --iterations 100 --mutate 4        # oracle quality
 *   tqan-fuzz --replay fuzz-failures/case0.repro # one reproducer
 *
 * Seeding: --seed (or TQAN_FUZZ_SEED) fully determines every
 * scenario, compile and oracle draw; results are identical for any
 * --jobs value.
 *
 * Long campaigns are crash-safe: --checkpoint journals each finished
 * scenario shard, SIGINT/SIGTERM stop gracefully (exit 5 with a
 * resume hint), and --resume FILE replays the journal so the resumed
 * summary is byte-identical to an uninterrupted run.  --processes N
 * forks one worker per shard so a crashing shard costs a retry, not
 * the campaign; only then can --shard-deadline kill a hung one.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/backend.h"
#include "core/env.h"
#include "robust/fault.h"
#include "robust/runner.h"
#include "service/json.h"
#include "verify/fuzz.h"

using namespace tqan;

namespace {

void
printHelp(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: tqan-fuzz [options]\n"
        "       tqan-fuzz --replay FILE [options]\n"
        "\n"
        "Randomized end-to-end correctness fuzzing: generator ->\n"
        "every registered backend -> equivalence checker.  Exit 0\n"
        "when every case verifies (and, with --mutate, the\n"
        "detection rate clears --min-detection); 1 on verification\n"
        "failures; 4 on a mutation-detection shortfall.\n"
        "\n"
        "options:\n"
        "  --iterations N    scenarios to draw (default 100)\n"
        "  --seed S          base seed (default $TQAN_FUZZ_SEED or 1)\n"
        "  --jobs N          scenario-parallel workers (default 1;\n"
        "                    results identical for any value)\n"
        "  --backends CSV    comma-separated backend subset\n"
        "                    (default: all registered)\n"
        "  --max-qubits N    circuit-size ceiling (default 9)\n"
        "  --min-qubits N    circuit-size floor (default 3)\n"
        "  --max-device N    device-size ceiling (default 11)\n"
        "  --clifford        draw only Clifford-restricted scenarios\n"
        "                    (exact stabilizer oracle at any scale;\n"
        "                    pair with --min-qubits 100 for the\n"
        "                    beyond-statevector leg)\n"
        "  --structured P    fraction of scenarios on grid/heavy-hex\n"
        "                    devices instead of random topologies\n"
        "                    (default 0)\n"
        "  --noise           attach calibration-style synthetic noise\n"
        "                    maps (heterogeneous coupler error rates)\n"
        "  --trials N        oracle trials per case (default 3)\n"
        "  --mutate M        mutation campaign: M corruptions per\n"
        "                    verified case (default 0 = off)\n"
        "  --min-detection P mutation detection gate in percent\n"
        "                    (default 95)\n"
        "  --no-shrink       keep failing scenarios unshrunk\n"
        "  --no-decomp       skip decomposition re-verification\n"
        "  --out DIR         write reproducers here (default\n"
        "                    fuzz-failures/)\n"
        "  --checkpoint FILE journal finished shards here; an\n"
        "                    interrupted campaign resumes from it\n"
        "  --resume FILE     resume from (and keep journaling to)\n"
        "                    FILE; the summary is byte-identical to\n"
        "                    an uninterrupted run\n"
        "  --processes N     fork one worker process per shard (at\n"
        "                    most N live); crashes cost one retry\n"
        "  --shard-deadline S  with --processes: seconds before a\n"
        "                    hung child is killed and its shard\n"
        "                    requeued (default: no deadline)\n"
        "  --retries N       extra attempts before a shard is\n"
        "                    quarantined (default 2)\n"
        "  --replay FILE     re-run one reproducer spec\n"
        "  --dump SEED       print the scenario a seed generates as\n"
        "                    a reproducer spec and exit\n"
        "  --verbose         per-failure detail on stderr\n"
        "  --help            this help\n");
}

} // namespace

int
main(int argc, char **argv)
{
    verify::FuzzOptions opt;
    // Strict parse with warn-and-fallback (stoull would accept
    // "7junk" as 7 silently; see core/env.h).
    opt.seed = core::envUint64Or("TQAN_FUZZ_SEED", 1);
    std::string outDir = "fuzz-failures";
    std::string replayFile;
    std::uint64_t dumpSeed = 0;
    bool dump = false;
    double minDetection = 95.0;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "tqan-fuzz: missing value for %s\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // After next(), argv[i] is the value that failed to parse.
        auto bad = [&]() {
            std::fprintf(stderr, "tqan-fuzz: bad value '%s' for %s\n",
                         argv[i], a.c_str());
            return 2;
        };
        if (a == "--help" || a == "-h") {
            printHelp(stdout);
            return 0;
        } else if (a == "--iterations") {
            if (!service::parseI32(next(), &opt.iterations))
                return bad();
        } else if (a == "--seed") {
            if (!service::parseU64(next(), &opt.seed))
                return bad();
        } else if (a == "--jobs") {
            if (!service::parseI32(next(), &opt.campaign.workers))
                return bad();
        } else if (a == "--backends") {
            std::istringstream is(next());
            std::string tok;
            while (std::getline(is, tok, ','))
                if (!tok.empty())
                    opt.backends.push_back(tok);
        } else if (a == "--max-qubits") {
            if (!service::parseI32(next(), &opt.scenario.maxQubits))
                return bad();
        } else if (a == "--min-qubits") {
            if (!service::parseI32(next(), &opt.scenario.minQubits))
                return bad();
        } else if (a == "--max-device") {
            if (!service::parseI32(next(),
                                   &opt.scenario.maxDeviceQubits))
                return bad();
        } else if (a == "--clifford") {
            opt.scenario.cliffordOnly = true;
        } else if (a == "--structured") {
            if (!service::parseF64(next(),
                                   &opt.scenario.structuredFraction))
                return bad();
        } else if (a == "--noise") {
            opt.scenario.withNoise = true;
        } else if (a == "--trials") {
            if (!service::parseI32(next(),
                                   &opt.check.equivalence.trials))
                return bad();
        } else if (a == "--mutate") {
            if (!service::parseI32(next(), &opt.mutationsPerCase))
                return bad();
        } else if (a == "--min-detection") {
            if (!service::parseF64(next(), &minDetection))
                return bad();
        } else if (a == "--checkpoint") {
            opt.campaign.checkpoint = next();
        } else if (a == "--resume") {
            opt.campaign.checkpoint = next();
            opt.campaign.resume = true;
        } else if (a == "--processes") {
            if (!service::parseI32(next(), &opt.campaign.processes))
                return bad();
        } else if (a == "--shard-deadline") {
            if (!service::parseF64(next(),
                                   &opt.campaign.shardDeadline))
                return bad();
        } else if (a == "--retries") {
            if (!service::parseI32(next(), &opt.campaign.retries))
                return bad();
        } else if (a == "--no-shrink") {
            opt.shrink = false;
        } else if (a == "--no-decomp") {
            opt.check.checkDecompositions = false;
        } else if (a == "--out") {
            outDir = next();
        } else if (a == "--replay") {
            replayFile = next();
        } else if (a == "--dump") {
            if (!service::parseU64(next(), &dumpSeed))
                return bad();
            dump = true;
        } else if (a == "--verbose") {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "tqan-fuzz: unknown option '%s' (run "
                         "'tqan-fuzz --help')\n",
                         a.c_str());
            return 2;
        }
    }
    if (opt.iterations < 1 || opt.campaign.workers < 1 ||
        opt.campaign.processes < 0 || opt.campaign.retries < 0 ||
        opt.campaign.shardDeadline < 0.0 ||
        opt.scenario.minQubits < 1 ||
        opt.scenario.maxQubits < opt.scenario.minQubits ||
        opt.scenario.structuredFraction < 0.0 ||
        opt.scenario.structuredFraction > 1.0) {
        std::fprintf(stderr, "tqan-fuzz: bad option values\n");
        return 2;
    }
    if (opt.campaign.shardDeadline > 0.0 &&
        opt.campaign.processes == 0) {
        // A hung thread cannot be killed; only a forked worker can
        // be held to a deadline.
        std::fprintf(stderr, "tqan-fuzz: --shard-deadline needs "
                             "--processes N\n");
        return 2;
    }
    if (opt.scenario.maxDeviceQubits < opt.scenario.maxQubits)
        opt.scenario.maxDeviceQubits = opt.scenario.maxQubits;

    try {
        for (const auto &b : opt.backends)
            core::backendByName(b);  // fail fast on typos

        if (dump) {
            testgen::Scenario s =
                testgen::randomScenario(dumpSeed, opt.scenario);
            std::fputs(testgen::toSpec(s).c_str(), stdout);
            return 0;
        }
        if (!replayFile.empty()) {
            std::ifstream f(replayFile);
            if (!f) {
                std::fprintf(stderr, "tqan-fuzz: cannot open %s\n",
                             replayFile.c_str());
                return 2;
            }
            testgen::Scenario s = testgen::scenarioFromSpec(f);
            std::vector<verify::FuzzSkip> skips;
            auto failures = verify::runScenario(s, opt, &skips);
            // Skips are not failures, but an over-ceiling replay
            // must say WHICH oracle refused and why, not exit with
            // a generic error (or worse, a bad_alloc).
            for (const auto &sk : skips)
                std::fprintf(stderr,
                             "tqan-fuzz: %s: skipped -- %s\n",
                             sk.backend.c_str(), sk.reason.c_str());
            if (failures.empty()) {
                std::fprintf(stderr,
                             "tqan-fuzz: reproducer %s verifies "
                             "clean on every backend%s\n",
                             replayFile.c_str(),
                             skips.empty() ? ""
                                           : " that an oracle could "
                                             "decide");
                return 0;
            }
            for (const auto &fl : failures)
                std::fprintf(stderr, "tqan-fuzz: %s: %s\n",
                             fl.backend.c_str(), fl.error.c_str());
            return 1;
        }

        if (robust::faultPlanArmed())
            std::fprintf(stderr, "tqan-fuzz: fault plan armed: %s\n",
                         robust::faultPlanSummary().c_str());
        if (!opt.campaign.checkpoint.empty())
            robust::installCampaignSignalHandlers();

        verify::FuzzSummary sum = verify::runFuzz(opt);
        std::fprintf(stderr, "tqan-fuzz: %s\n",
                     verify::summaryLine(sum).c_str());

        if (sum.interrupted) {
            std::fprintf(
                stderr,
                "tqan-fuzz: campaign interrupted with %llu shards "
                "left; resume with --resume %s\n",
                static_cast<unsigned long long>(sum.skippedShards),
                opt.campaign.checkpoint.empty()
                    ? "FILE (rerun with --checkpoint)"
                    : opt.campaign.checkpoint.c_str());
            return robust::kInterruptedExit;
        }
        if (sum.quarantinedShards > 0)
            // Graceful degradation: the findings below cover every
            // shard that resolved; quarantined shards are reported,
            // not fatal.
            std::fprintf(
                stderr,
                "tqan-fuzz: %llu shards quarantined after retries "
                "(results cover the remaining shards)\n",
                static_cast<unsigned long long>(
                    sum.quarantinedShards));

        if (!sum.failures.empty()) {
            std::filesystem::create_directories(outDir);
            int idx = 0;
            for (const auto &f : sum.failures) {
                std::string path =
                    outDir + "/case" + std::to_string(idx++) +
                    "_seed" + std::to_string(f.scenarioSeed) + "_" +
                    f.backend + ".repro";
                std::ofstream out(path);
                out << f.reproducer;
                std::fprintf(stderr,
                             "tqan-fuzz: FAIL %s on %s -> %s\n",
                             f.scenarioName.c_str(),
                             f.backend.c_str(), path.c_str());
                if (verbose)
                    std::fprintf(stderr, "  %s\n",
                                 f.error.c_str());
            }
            return 1;
        }
        if (opt.mutationsPerCase > 0 &&
            100.0 * sum.detectionRate() < minDetection) {
            std::fprintf(stderr,
                         "tqan-fuzz: mutation detection %.1f%% is "
                         "below the %.1f%% gate\n",
                         100.0 * sum.detectionRate(), minDetection);
            return 4;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tqan-fuzz: error: %s\n", e.what());
        return 1;
    }
}
