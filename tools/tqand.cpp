/**
 * @file
 * tqand -- the compile-service daemon (JSONL over stdin/stdout).
 *
 * Reads one JSON compile request per line, writes one JSON response
 * per line in request order, and keeps a content-addressed compile
 * cache in front of the BatchCompiler; with --cache PATH the
 * cache persists across restarts.  See src/service/service.h for the
 * protocol and README "Compile service" for examples.
 *
 *   printf '%s\n' \
 *     '{"type":"compile","id":"r1","ham":"qubits 2\npair 0 1 0 0 0.7\n","device":"line:3"}' \
 *     '{"type":"stats","id":"s"}' | tqand --cache /tmp/tqan.cache
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "robust/fault.h"
#include "service/service.h"
#include "simd/dispatch.h"

using namespace tqan;

namespace {

void
printHelp(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: tqand [options]\n"
        "\n"
        "Compile-service daemon: reads JSONL requests from stdin,\n"
        "writes JSONL responses to stdout (in request order) until\n"
        "EOF or a {\"type\":\"shutdown\"} request.  Request types:\n"
        "compile | stats | shutdown.\n"
        "\n"
        "options:\n"
        "  --jobs N          most misses compiled at once, on one\n"
        "                    shared pool (default 1)\n"
        "  --cache PATH      persist the compile cache at PATH\n"
        "                    (default: in-memory only)\n"
        "  --queue N         admission-queue bound; overflow is\n"
        "                    rejected (default 64)\n"
        "  --deadline-ms D   default per-request queue deadline in\n"
        "                    ms, 0 = unlimited (default 0)\n"
        "  --stats           print a final stats line to stderr on\n"
        "                    exit\n"
        "  --version         print the version and exit\n"
        "  --help            show this help and exit\n");
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "tqand: %s\n", msg.c_str());
    std::exit(2);
}

std::string
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        die(std::string(argv[i]) + " needs a value");
    return argv[++i];
}

int
intArg(const std::string &flag, const std::string &value,
       int minValue)
{
    int v = 0;
    if (!service::parseI32(value, &v) || v < minValue)
        die(flag + " expects an integer >= " +
            std::to_string(minValue) + ", got '" + value + "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServiceOptions opt;
    bool finalStats = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printHelp(stdout);
            return 0;
        }
        if (a == "--version") {
            std::printf("tqand %s (%s)\n", TQAN_VERSION,
                        simd::activeIsaName());
            return 0;
        }
        if (a == "--jobs") {
            opt.jobs = intArg(a, argValue(argc, argv, i), 1);
        } else if (a == "--cache") {
            opt.cachePath = argValue(argc, argv, i);
        } else if (a == "--queue") {
            opt.maxQueue = static_cast<std::size_t>(
                intArg(a, argValue(argc, argv, i), 1));
        } else if (a == "--deadline-ms") {
            std::string v = argValue(argc, argv, i);
            double d = 0.0;
            if (!service::parseF64(v, &d) || d < 0.0)
                die("--deadline-ms expects a number >= 0, got '" +
                    v + "'");
            opt.defaultDeadlineMs = d;
        } else if (a == "--stats") {
            finalStats = true;
        } else {
            die("unknown option '" + a + "' (try --help)");
        }
    }

    // A TQAN_FAULT plan silently active in a production daemon would
    // look like flaky hardware; announce it up front.
    if (robust::faultPlanArmed())
        std::fprintf(stderr, "tqand: fault plan armed: %s\n",
                     robust::faultPlanSummary().c_str());

    service::CompileService svc(opt);
    if (!svc.options().cachePath.empty()) {
        const auto &li = svc.cacheLoadInfo();
        if (li.rebuilt)
            std::fprintf(stderr,
                         "tqand: cache %s unrecognized, rebuilt "
                         "empty\n",
                         opt.cachePath.c_str());
        else if (li.droppedBytes)
            std::fprintf(stderr,
                         "tqand: cache %s: dropped %llu "
                         "unverifiable tail bytes, kept %llu "
                         "entries\n",
                         opt.cachePath.c_str(),
                         static_cast<unsigned long long>(
                             li.droppedBytes),
                         static_cast<unsigned long long>(
                             li.loadedEntries));
    }

    svc.serve(std::cin, std::cout);

    if (finalStats) {
        service::ServiceStats s = svc.stats();
        std::fprintf(stderr,
                     "tqand: requests=%llu hits=%llu misses=%llu "
                     "hit_rate=%.4f errors=%llu rejected=%llu "
                     "expired=%llu cache_entries=%llu "
                     "io_retries=%llu p50_ms=%.3f p99_ms=%.3f\n",
                     static_cast<unsigned long long>(s.requests),
                     static_cast<unsigned long long>(s.hits),
                     static_cast<unsigned long long>(s.misses),
                     s.hitRate(),
                     static_cast<unsigned long long>(s.errors),
                     static_cast<unsigned long long>(s.rejected),
                     static_cast<unsigned long long>(s.expired),
                     static_cast<unsigned long long>(
                         s.cacheEntries),
                     static_cast<unsigned long long>(s.ioRetries),
                     s.p50Ms, s.p99Ms);
    }
    return 0;
}
