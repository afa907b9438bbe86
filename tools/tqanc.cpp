/**
 * @file
 * tqanc -- command-line front end of the tqan compiler.
 *
 * Compiles a 2-local Hamiltonian (text format, see ham/parser.h) for
 * a target device through any registered compiler backend and prints
 * the compilation metrics; optionally emits the decomposed circuit
 * as OpenQASM 2.0.
 *
 * Example:
 *   echo 'qubits 4
 *         pair 0 1 0 0 0.7
 *         pair 1 2 0 0 0.7
 *         pair 2 3 0 0 0.7
 *         pair 0 3 0 0 0.7' | tqanc - --device line:5 --qasm
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/backend.h"
#include "core/compiler.h"
#include "core/metrics.h"
#include "core/router_registry.h"
#include "core/profile.h"
#include "robust/fault.h"
#include "simd/dispatch.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qap/mapper.h"
#include "qcir/qasm.h"
#include "service/json.h"

using namespace tqan;

namespace {

std::string
joined(const std::vector<std::string> &names)
{
    std::string s;
    for (const auto &n : names)
        s += (s.empty() ? "" : " | ") + n;
    return s;
}

void
printHelp(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: tqanc <hamiltonian-file|-> [options]\n"
        "\n"
        "Compile a 2-local Hamiltonian (see ham/parser.h for the\n"
        "text format; '-' reads stdin) and print the compilation\n"
        "metrics.\n"
        "\n"
        "options:\n"
        "  --device NAME     montreal | sycamore | aspen | manhattan\n"
        "                    | line:N | ring:N | grid:RxC\n"
        "                    | heavyhex:D (D odd >= 3)\n"
        "                    (default montreal)\n"
        "  --gateset G       cnot | cz | iswap | syc (default cnot)\n"
        "  --pipeline B      compiler backend: %s\n"
        "                    (default 2qan)\n"
        "  --time T          Trotter-step time (default 1.0)\n"
        "  --seed S          RNG seed (default 7)\n"
        "  --qasm            print the decomposed circuit "
        "(CNOT/CZ only)\n"
        "  --profile         print a wall-time profile (per pass,\n"
        "                    per kernel) to stderr after compiling\n"
        "  --version         print the version, detected CPU caps\n"
        "                    and per-kernel SIMD dispatch, then "
        "exit\n"
        "  --help            show this help and exit\n"
        "\n"
        "2qan-pipeline options (rejected for other backends):\n"
        "  --jobs N          workers for the mapper trials (default\n"
        "                    0: one per hardware thread, at most one\n"
        "                    per trial); results are identical for\n"
        "                    every N\n"
        "  --mapper M        placement strategy: %s\n"
        "  --router R        routing strategy: %s\n"
        "                    (default greedy)\n"
        "  --trials K        randomized mapping trials (default 5)\n"
        "  --noise-aware     synthetic-calibration noise-aware "
        "placement\n"
        "  --no-unify        disable SWAP-unitary unifying\n"
        "  --generic-sched   use the order-respecting scheduler\n",
        joined(core::backendNames()).c_str(),
        joined(qap::mapperNames()).c_str(),
        joined(core::routerNames()).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            printHelp(stdout);
            return 0;
        }
        if (std::strcmp(argv[i], "--version") == 0) {
            std::fprintf(stdout, "tqanc %s\n%s", TQAN_VERSION,
                         simd::dispatchSummary().c_str());
            return 0;
        }
    }
    if (argc < 2) {
        printHelp(stderr);
        return 2;
    }

    std::string input = argv[1];
    std::string dev = "montreal", gs_name = "cnot", mapper = "tabu",
                router = "greedy", pipeline = "2qan";
    double t = 1.0;
    std::uint64_t seed = 7;
    int jobs = core::CompilerOptions().jobs, trials = 5;
    bool noise_aware = false, no_unify = false,
         generic_sched = false, qasm = false, profile = false;
    /** 2QAN-only options the user set explicitly, so selecting a
     * baseline pipeline can reject them instead of silently ignoring
     * them (wrong ablation conclusions otherwise). */
    std::vector<std::string> tqan_only;

    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        // After next(), argv[i] is the value that failed to parse.
        auto bad = [&]() {
            return std::runtime_error("bad value '" +
                                      std::string(argv[i]) +
                                      "' for " + a);
        };
        try {
            if (a == "--device")
                dev = next();
            else if (a == "--gateset")
                gs_name = next();
            else if (a == "--pipeline") {
                // Validate at parse time, like unknown flags: a typo
                // should not survive until the compile starts.
                pipeline = next();
                core::backendByName(pipeline);
            } else if (a == "--time") {
                if (!service::parseF64(next(), &t))
                    throw bad();
            } else if (a == "--seed") {
                if (!service::parseU64(next(), &seed))
                    throw bad();
            } else if (a == "--jobs") {
                if (!service::parseI32(next(), &jobs) || jobs < 0)
                    throw bad();
                tqan_only.push_back(a);
            } else if (a == "--mapper") {
                mapper = next();
                qap::mapperByName(mapper);
                tqan_only.push_back(a);
            } else if (a == "--router") {
                router = next();
                core::routerByName(router);
                tqan_only.push_back(a);
            } else if (a == "--trials") {
                if (!service::parseI32(next(), &trials))
                    throw bad();
                tqan_only.push_back(a);
            } else if (a == "--noise-aware") {
                noise_aware = true;
                tqan_only.push_back(a);
            } else if (a == "--no-unify") {
                no_unify = true;
                tqan_only.push_back(a);
            } else if (a == "--generic-sched") {
                generic_sched = true;
                tqan_only.push_back(a);
            } else if (a == "--qasm")
                qasm = true;
            else if (a == "--profile")
                profile = true;
            else
                throw std::runtime_error(
                    "unknown option '" + a +
                    "' (run 'tqanc --help' for the option list)");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tqanc: %s\n", e.what());
            return 2;
        }
    }
    if (pipeline != "2qan" && !tqan_only.empty()) {
        std::fprintf(stderr,
                     "tqanc: option '%s' only applies to the 2qan "
                     "pipeline (got --pipeline %s)\n",
                     tqan_only.front().c_str(), pipeline.c_str());
        return 2;
    }

    core::profile::setEnabled(profile);
    // A TQAN_FAULT plan changes behavior by design; make sure it is
    // never active by accident.
    if (robust::faultPlanArmed())
        std::fprintf(stderr, "tqanc: fault plan armed: %s\n",
                     robust::faultPlanSummary().c_str());

    try {
        ham::TwoLocalHamiltonian h = [&]() {
            if (input == "-")
                return ham::parseHamiltonian(std::cin);
            std::ifstream f(input);
            if (!f)
                throw std::runtime_error("cannot open " + input);
            return ham::parseHamiltonian(f);
        }();

        device::Topology topo = device::deviceByName(dev);
        device::GateSet gs = device::gateSetByName(gs_name);

        core::CompileJob job;
        job.hamiltonian = &h;
        job.time = t;
        job.options.seed = seed;
        job.options.jobs = jobs;
        job.options.mapperTrials = trials;
        job.options.router.unifySwaps = !no_unify;
        job.options.router.name = router;
        job.options.hybridSchedule = !generic_sched;
        job.options.mapper = mapper;
        if (noise_aware) {
            std::mt19937_64 nrng(seed ^ 0xCA11B8A7Eull);
            job.options.noiseMap =
                std::make_shared<device::NoiseMap>(
                    device::NoiseMap::synthetic(topo, nrng));
        }

        const core::CompilerBackend &backend =
            core::backendByName(pipeline);
        qcir::Circuit step = ham::trotterStep(h, t);
        job.step = &step;
        auto res = backend.compile(job, topo);
        auto m = backend.metrics(res, step, gs);

        std::fprintf(stderr,
                     "tqanc: %d qubits -> %s (%s, %s)\n"
                     "  swaps          %d (dressed %d)\n"
                     "  native 2q      %d (NoMap %d, overhead %d)\n"
                     "  2q depth       %d (NoMap %d)\n"
                     "  all-gate depth %d (NoMap %d)\n",
                     h.numQubits(), topo.name().c_str(),
                     device::gateSetName(gs).c_str(),
                     backend.name().c_str(), m.swaps, m.dressed,
                     m.native2q, m.native2qNoMap, m.gateOverhead(),
                     m.depth2q, m.depth2qNoMap, m.depthAll,
                     m.depthAllNoMap);
        for (const auto &pt : res.passTimes)
            std::fprintf(stderr, "  pass %-10s %8.2f ms\n",
                         pt.pass.c_str(), pt.seconds * 1e3);

        if (qasm) {
            qcir::Circuit hw =
                gs == device::GateSet::Cz
                    ? decomp::decomposeToCz(res.sched.deviceCircuit)
                    : decomp::decomposeToCnot(
                          res.sched.deviceCircuit);
            std::cout << qcir::toQasm(hw);
        }

        if (profile) {
            // ISA header so profile rows (labelled per ISA) are
            // attributable to the hardware path that produced them.
            std::fprintf(stderr, "profile: simd=%s caps=[%s]\n",
                         simd::activeIsaName(),
                         simd::hostCaps().str().c_str());
            std::fputs(core::profile::report().c_str(), stderr);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tqanc: error: %s\n", e.what());
        return 1;
    }
    return 0;
}
