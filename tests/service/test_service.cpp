/**
 * @file
 * CompileService tests: protocol strictness, miss -> hit byte
 * identity, parity with the tqanc compile path, restart persistence,
 * corrupted-store recovery, stats, the hit path that never parses
 * the Hamiltonian, the shared topology memo, and the serve() daemon
 * loop (in-order responses, bounded admission, deadlines).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/compiler.h"
#include "core/metrics.h"
#include "decomp/pass.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qcir/qasm.h"
#include "service/service.h"

using namespace tqan;
using service::CompileService;
using service::JsonObject;
using service::ServiceOptions;

namespace {

const char *kHam = "qubits 3\\npair 0 1 0 0 0.7\\npair 1 2 0 0 0.7\\n";

/** A compile request whose `ham` the parser rejects (line 2). */
const char *kBadHamLine =
    "{\"type\":\"compile\",\"id\":\"bad\",\"ham\":"
    "\"qubits 3\\nbogus 0 1\\n\",\"device\":\"line:4\"}";

std::string
compileLine(const std::string &id, const std::string &extra = "",
            const std::string &device = "line:4")
{
    return "{\"type\":\"compile\",\"id\":\"" + id +
           "\",\"ham\":\"" + kHam + "\",\"device\":\"" + device +
           "\"" + extra + "}";
}

/** Responses are flat JSON objects, so the service's own strict
 * parser can decode them for assertions. */
JsonObject
decoded(const std::string &response)
{
    return service::parseJsonObject(response);
}

std::string
strOf(const JsonObject &obj, const std::string &key)
{
    auto it = obj.find(key);
    return it == obj.end() ? std::string() : it->second.text;
}

std::string
tempCache(const std::string &name)
{
    return testing::TempDir() + "tqan_service_" + name + ".bin";
}

/** Every response line serve() writes for `input`. */
std::vector<std::string>
serveLines(CompileService &svc, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    svc.serve(in, out);
    std::istringstream lines(out.str());
    std::vector<std::string> got;
    std::string line;
    while (std::getline(lines, line))
        got.push_back(line);
    return got;
}

} // namespace

TEST(CompileService, MissThenHitAreByteIdentical)
{
    CompileService svc;
    std::string first = svc.handleLine(compileLine("r1"));
    std::string second = svc.handleLine(compileLine("r1"));
    JsonObject a = decoded(first), b = decoded(second);
    EXPECT_EQ(strOf(a, "status"), "ok") << first;
    EXPECT_EQ(strOf(a, "cache"), "miss");
    EXPECT_EQ(strOf(b, "cache"), "hit");
    // Identical apart from the cache marker itself.
    a.erase("cache");
    b.erase("cache");
    EXPECT_EQ(a, b);
    EXPECT_EQ(svc.stats().hits, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(CompileService, ResponseMatchesTheTqancCompilePath)
{
    // The exact pipeline tools/tqanc.cpp runs for
    //   tqanc - --device line:4 --qasm
    ham::TwoLocalHamiltonian h = ham::parseHamiltonian(
        "qubits 3\npair 0 1 0 0 0.7\npair 1 2 0 0 0.7\n");
    device::Topology topo = device::deviceByName("line:4");
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    const core::CompilerBackend &backend =
        core::backendByName("2qan");
    core::CompileJob job;
    job.step = &step;
    job.hamiltonian = &h;
    core::CompileResult res = backend.compile(job, topo);
    core::CompilationMetrics m =
        backend.metrics(res, step, device::GateSet::Cnot);
    std::string qasm = qcir::toQasm(
        decomp::decomposeToCnot(res.sched.deviceCircuit));

    CompileService svc;
    JsonObject r = decoded(svc.handleLine(compileLine("r1")));
    ASSERT_EQ(strOf(r, "status"), "ok");
    EXPECT_EQ(strOf(r, "qasm"), qasm);
    EXPECT_EQ(strOf(r, "swaps"), std::to_string(m.swaps));
    EXPECT_EQ(strOf(r, "dressed"), std::to_string(m.dressed));
    EXPECT_EQ(strOf(r, "native2q"), std::to_string(m.native2q));
    EXPECT_EQ(strOf(r, "depth2q"), std::to_string(m.depth2q));
    EXPECT_EQ(strOf(r, "depth_all"), std::to_string(m.depthAll));
}

TEST(CompileService, NoiseAwareMatchesTqancSeedDerivation)
{
    // tqanc --noise-aware synthesizes calibration from
    // seed ^ 0xCA11B8A7E; the service must derive identically, and
    // the noise map must flow into the key (different seed,
    // different key).
    CompileService svc;
    JsonObject a = decoded(svc.handleLine(
        compileLine("r1", ",\"noise_aware\":true,\"seed\":7")));
    JsonObject b = decoded(svc.handleLine(
        compileLine("r2", ",\"noise_aware\":true,\"seed\":8")));
    JsonObject plain =
        decoded(svc.handleLine(compileLine("r3", ",\"seed\":7")));
    ASSERT_EQ(strOf(a, "status"), "ok");
    ASSERT_EQ(strOf(b, "status"), "ok");
    EXPECT_NE(strOf(a, "key"), strOf(b, "key"));
    EXPECT_NE(strOf(a, "key"), strOf(plain, "key"));
}

TEST(CompileService, PersistsAcrossRestart)
{
    std::string path = tempCache("restart");
    std::remove(path.c_str());
    ServiceOptions opt;
    opt.cachePath = path;
    std::string cold, warm;
    {
        CompileService svc(opt);
        cold = svc.handleLine(compileLine("r1"));
    }
    {
        CompileService svc(opt);  // fresh daemon, same store
        EXPECT_EQ(svc.cacheLoadInfo().loadedEntries, 1u);
        warm = svc.handleLine(compileLine("r1"));
        EXPECT_EQ(svc.stats().hits, 1u);
        EXPECT_EQ(svc.stats().misses, 0u);
    }
    JsonObject a = decoded(cold), b = decoded(warm);
    EXPECT_EQ(strOf(a, "cache"), "miss");
    EXPECT_EQ(strOf(b, "cache"), "hit");
    a.erase("cache");
    b.erase("cache");
    EXPECT_EQ(a, b);
    std::remove(path.c_str());
}

TEST(CompileService, CorruptedStoreIsRebuiltNotServed)
{
    std::string path = tempCache("corrupt");
    std::remove(path.c_str());
    ServiceOptions opt;
    opt.cachePath = path;
    std::string cold;
    {
        CompileService svc(opt);
        cold = svc.handleLine(compileLine("r1"));
    }
    {
        // Flip one byte in the stored payload region.
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(-2, std::ios::end);
        char c = 0;
        f.seekg(-2, std::ios::end);
        f.get(c);
        f.seekp(-2, std::ios::end);
        f.put(static_cast<char>(c ^ 0x01));
    }
    CompileService svc(opt);
    EXPECT_EQ(svc.cacheLoadInfo().loadedEntries, 0u);
    EXPECT_GT(svc.cacheLoadInfo().droppedBytes, 0u);
    // Recompiled from scratch, same bytes as the original cold run.
    std::string recompiled = svc.handleLine(compileLine("r1"));
    EXPECT_EQ(svc.stats().misses, 1u);
    EXPECT_EQ(recompiled, cold);
    std::remove(path.c_str());
}

TEST(CompileService, RejectsMalformedRequests)
{
    CompileService svc;
    std::vector<std::string> bad = {
        "not json at all",
        "{\"type\":\"compile\"}",            // missing ham
        "{\"ham\":\"qubits 2\\n\"}",         // missing type
        "{\"type\":\"frobnicate\",\"ham\":\"x\"}",
        compileLine("r1", ",\"bogus_field\":1"),  // unknown field
        "{\"type\":\"compile\",\"ham\":\"qubits 2\\n\","
        "\"seed\":7.5}",                     // non-integer seed
        "{\"type\":\"compile\",\"ham\":\"qubits 2\\n\","
        "\"trials\":0}",                     // below minimum
        "{\"type\":\"compile\",\"ham\":\"qubits 2\\n\","
        "\"device\":\"custom:4:0-1junk\"}",  // bad topology spec
        "{\"type\":\"compile\",\"ham\":\"qubits 2\\n\","
        "\"mapper\":\"bogus\"}",
    };
    for (const std::string &line : bad) {
        JsonObject r = decoded(svc.handleLine(line));
        EXPECT_EQ(strOf(r, "status"), "error")
            << "accepted: " << line;
    }
    EXPECT_EQ(svc.stats().errors, bad.size());
    EXPECT_EQ(svc.stats().misses, 0u);
}

TEST(CompileService, MalformedHamIsAnErrorAndNeverCached)
{
    // The parse runs only on a miss, but a bad `ham` is still
    // answered at admission with the parser's own message, and
    // nothing is compiled or cached.
    const std::string expect =
        "{\"id\":\"bad\",\"status\":\"error\",\"error\":"
        "\"parseHamiltonian: line 2: unknown keyword 'bogus'\"}";
    CompileService svc;
    EXPECT_EQ(svc.handleLine(kBadHamLine), expect);
    std::vector<std::string> served =
        serveLines(svc, std::string(kBadHamLine) + "\n");
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0], expect);
    EXPECT_EQ(svc.stats().misses, 0u);
    EXPECT_EQ(svc.stats().errors, 2u);
    EXPECT_EQ(svc.stats().cacheEntries, 0u);
}

TEST(CompileService, HitIsServedWithoutParsingTheHamiltonian)
{
    // Plant a payload under the key of a request whose `ham` does
    // not parse.  Only a hit path that never parses can serve it.
    std::string path = tempCache("planted");
    std::remove(path.c_str());
    service::CompileRequest req = CompileService::parseCompileRequest(
        service::parseJsonObject(kBadHamLine));
    device::Topology topo = device::deviceByName(req.device);
    std::uint64_t key = CompileService::cacheKey(req, topo);
    const std::string payload = "\"backend\":\"2qan\",\"planted\":1";
    {
        service::CompileCache cache(path);
        cache.insert(key, CompileService::canonicalRequest(req, topo),
                     payload);
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    const std::string expect =
        "{\"id\":\"bad\",\"status\":\"ok\",\"cache\":\"hit\",\"key\":\"" +
        std::string(hex) + "\"," + payload + "}";

    ServiceOptions opt;
    opt.cachePath = path;
    CompileService svc(opt);
    EXPECT_EQ(svc.handleLine(kBadHamLine), expect);
    std::vector<std::string> served =
        serveLines(svc, std::string(kBadHamLine) + "\n");
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0], expect);
    EXPECT_EQ(svc.stats().hits, 2u);
    EXPECT_EQ(svc.stats().errors, 0u);
    std::remove(path.c_str());
}

TEST(CompileService, TopologyMemoIsSharedAcrossThreads)
{
    // Requests over two devices from four threads, then 20 distinct
    // device specs (more than the memo holds, so it is cleared while
    // in use): every response matches a single-threaded service.
    // Line i repeats line i - 8, and both go to thread i % 4, so
    // hits and misses fall exactly as in the single-threaded run.
    std::vector<std::string> lines;
    for (int i = 0; i < 16; ++i)
        lines.push_back(compileLine(
            "r" + std::to_string(i),
            ",\"seed\":" + std::to_string(i % 4),
            (i / 4) % 2 ? "line:4" : "grid:2x2"));
    for (int n = 3; n < 23; ++n)
        lines.push_back(compileLine("d" + std::to_string(n), "",
                                    "line:" + std::to_string(n)));

    std::vector<std::string> expect;
    {
        CompileService single;
        for (const std::string &line : lines)
            expect.push_back(single.handleLine(line));
    }
    for (const std::string &r : expect)
        ASSERT_EQ(strOf(decoded(r), "status"), "ok") << r;

    CompileService svc;
    std::vector<std::string> got(lines.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < lines.size(); i += 4)
                got[i] = svc.handleLine(lines[i]);
        });
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << lines[i];
    EXPECT_EQ(svc.stats().hits, 8u);
}

TEST(CompileService, StatsRequestReportsCounters)
{
    CompileService svc;
    svc.handleLine(compileLine("r1"));
    svc.handleLine(compileLine("r1"));
    JsonObject s = decoded(
        svc.handleLine("{\"type\":\"stats\",\"id\":\"s1\"}"));
    EXPECT_EQ(strOf(s, "status"), "ok");
    EXPECT_EQ(strOf(s, "hits"), "1");
    EXPECT_EQ(strOf(s, "misses"), "1");
    EXPECT_EQ(strOf(s, "hit_rate"), "0.5000");
    EXPECT_EQ(strOf(s, "cache_entries"), "1");
}

TEST(CompileServiceServe, AnswersInRequestOrderAndDrains)
{
    std::string input;
    for (int i = 0; i < 6; ++i)
        input += compileLine("r" + std::to_string(i),
                             ",\"seed\":" + std::to_string(i)) +
                 "\n";
    input += "{\"type\":\"stats\",\"id\":\"s\"}\n";

    ServiceOptions opt;
    opt.jobs = 2;
    CompileService svc(opt);
    std::istringstream in(input);
    std::ostringstream out;
    svc.serve(in, out);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> ids;
    while (std::getline(lines, line))
        ids.push_back(strOf(decoded(line), "id"));
    ASSERT_EQ(ids.size(), 7u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(ids[i], "r" + std::to_string(i));
    EXPECT_EQ(ids[6], "s");
    EXPECT_EQ(svc.stats().misses, 6u);
    EXPECT_EQ(svc.stats().queueDepth, 0u);
}

TEST(CompileServiceServe, ServeMatchesHandleLineByteForByte)
{
    CompileService sync;
    std::string expect = sync.handleLine(compileLine("r1"));

    CompileService svc;
    std::istringstream in(compileLine("r1") + "\n");
    std::ostringstream out;
    svc.serve(in, out);
    EXPECT_EQ(out.str(), expect + "\n");
}

TEST(CompileServiceServe, ShutdownRequestStopsTheLoop)
{
    CompileService svc;
    std::istringstream in(
        compileLine("r1") +
        "\n{\"type\":\"shutdown\",\"id\":\"bye\"}\n" +
        compileLine("never") + "\n");
    std::ostringstream out;
    svc.serve(in, out);
    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> ids;
    while (std::getline(lines, line))
        ids.push_back(strOf(decoded(line), "id"));
    ASSERT_EQ(ids.size(), 2u);  // the line after shutdown is unread
    EXPECT_EQ(ids[0], "r1");
    EXPECT_EQ(ids[1], "bye");
}

TEST(CompileServiceServe, ExpiredDeadlineIsNotCompiled)
{
    // jobs=1 so the dispatcher handles one request at a time: while
    // r1 compiles, r2 (deadline well below r1's compile time) waits
    // in the queue and must come back "expired", not compiled.
    ServiceOptions opt;
    opt.jobs = 1;
    CompileService svc(opt);
    std::istringstream in(
        compileLine("r1", ",\"trials\":40", "grid:3x3") + "\n" +
        compileLine("r2", ",\"seed\":99,\"deadline_ms\":1e-6") +
        "\n");
    std::ostringstream out;
    svc.serve(in, out);
    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(strOf(decoded(line), "status"), "ok");
    std::getline(lines, line);
    EXPECT_EQ(strOf(decoded(line), "status"), "expired") << line;
    EXPECT_EQ(svc.stats().expired, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(CompileServiceServe, OverflowingTheQueueRejects)
{
    // One slow compile at the head, a bounded queue of 1 behind it:
    // flooding 10 more requests must reject at least one, and every
    // request still gets exactly one in-order response.
    ServiceOptions opt;
    opt.jobs = 1;
    opt.maxQueue = 1;
    CompileService svc(opt);
    std::string input =
        compileLine("r0", ",\"trials\":60", "grid:3x3") + "\n";
    for (int i = 1; i <= 10; ++i)
        input += compileLine("r" + std::to_string(i),
                             ",\"seed\":" + std::to_string(100 + i)) +
                 "\n";
    std::istringstream in(input);
    std::ostringstream out;
    svc.serve(in, out);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> ids;
    std::size_t rejected = 0;
    while (std::getline(lines, line)) {
        JsonObject r = decoded(line);
        ids.push_back(strOf(r, "id"));
        if (strOf(r, "status") == "rejected")
            ++rejected;
        else
            EXPECT_EQ(strOf(r, "status"), "ok") << line;
    }
    ASSERT_EQ(ids.size(), 11u);
    for (int i = 0; i <= 10; ++i)
        EXPECT_EQ(ids[i], "r" + std::to_string(i));
    EXPECT_GE(rejected, 1u);
    EXPECT_EQ(svc.stats().rejected, rejected);
}

TEST(CompileServiceServe, DuplicateInFlightRequestBecomesAHit)
{
    // Two identical requests back to back with jobs=1: the second
    // is admitted as a miss while the first compiles, then resolves
    // to a hit at dispatch — and the payloads are byte-identical.
    ServiceOptions opt;
    opt.jobs = 1;
    CompileService svc(opt);
    std::istringstream in(compileLine("a") + "\n" +
                          compileLine("b") + "\n");
    std::ostringstream out;
    svc.serve(in, out);
    std::istringstream lines(out.str());
    std::string first, second;
    std::getline(lines, first);
    std::getline(lines, second);
    JsonObject a = decoded(first), b = decoded(second);
    EXPECT_EQ(strOf(a, "status"), "ok");
    EXPECT_EQ(strOf(b, "status"), "ok");
    EXPECT_EQ(strOf(b, "cache"), "hit");
    a.erase("cache");
    a.erase("id");
    b.erase("cache");
    b.erase("id");
    EXPECT_EQ(a, b);
    EXPECT_EQ(svc.stats().misses, 1u);
    EXPECT_EQ(svc.stats().hits, 1u);
}
