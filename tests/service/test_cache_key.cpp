/**
 * @file
 * Cache-key completeness: the content address of a compile request
 * must cover EVERY input that can change the result.  Two guards:
 *
 *  1. Mutation: flip each CompileRequest / CompilerOptions field one
 *     at a time and assert the key changes.  A field the canonical
 *     form forgot would alias two different compilations onto one
 *     cache entry — the worst possible cache bug, wrong results
 *     served silently.
 *
 *  2. Layout tripwire: mirror structs with the exact field lists
 *     canonicalRequest() was written for, pinned by sizeof
 *     static_asserts.  Adding a CompilerOptions field without
 *     extending the canonical form (and this test) fails the build
 *     here instead of shipping an incomplete key.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>

#include "core/compiler.h"
#include "core/limits.h"
#include "device/noise_map.h"
#include "service/service.h"
#include "testgen/random_topology.h"

using namespace tqan;
using service::CompileRequest;
using service::CompileService;

namespace {

/** Field-for-field images of the structs the canonical form covers.
 * If a field is added/removed/resized upstream, the sizeof asserts
 * below fire and point here. */
struct TabuOptionsMirror
{
    int maxIters;
    int tabuLowMul;
    int tabuHighMul;
    int stallLimit;
};
struct RouterOptionsMirror
{
    std::string name;
    bool unifySwaps;
    int maxSwapFactor;
    int rrrMaxRounds;
    double rrrHistoryWeight;
    double rrrPresentWeight;
};
struct CompilerOptionsMirror
{
    std::string mapper;
    int mapperTrials;
    int jobs;
    bool unifyCircuit;
    bool hybridSchedule;
    RouterOptionsMirror router;
    TabuOptionsMirror tabu;
    std::shared_ptr<const device::NoiseMap> noiseMap;
    double noiseLambda;
    std::uint64_t seed;
};
static_assert(sizeof(TabuOptionsMirror) == sizeof(qap::TabuOptions),
              "qap::TabuOptions changed: extend "
              "CompileService::canonicalRequest() and this test");
static_assert(sizeof(RouterOptionsMirror) ==
                  sizeof(core::RouterOptions),
              "core::RouterOptions changed: extend "
              "CompileService::canonicalRequest() and this test");
static_assert(sizeof(CompilerOptionsMirror) ==
                  sizeof(core::CompilerOptions),
              "core::CompilerOptions changed: extend "
              "CompileService::canonicalRequest() and this test");

CompileRequest
baseRequest()
{
    CompileRequest r;
    r.ham = "qubits 3\npair 0 1 0 0 0.7\npair 1 2 0 0 0.7\n";
    r.device = "line:4";
    return r;
}

std::uint64_t
keyOf(const CompileRequest &r)
{
    device::Topology topo = testgen::topologyFromSpec(r.device);
    return CompileService::cacheKey(r, topo);
}

void
expectKeyChanges(const char *field, const CompileRequest &mutated)
{
    EXPECT_NE(keyOf(baseRequest()), keyOf(mutated))
        << "mutating " << field << " did not change the cache key";
}

} // namespace

TEST(CacheKey, IsDeterministic)
{
    EXPECT_EQ(keyOf(baseRequest()), keyOf(baseRequest()));
}

TEST(CacheKey, KeysArePinnedAcrossBuilds)
{
    // A persisted tqand store keeps hitting only while the canonical
    // form stays byte-identical across builds (e.g. a mapper held as
    // an enum or as its registry name keys the same "mapper=<name>").
    auto hex = [](std::uint64_t key) {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(key));
        return std::string(buf);
    };
    CompileRequest r = baseRequest();
    EXPECT_EQ(hex(keyOf(r)), "4883f4019b40972e");
    r.options.mapper = "anneal";
    EXPECT_EQ(hex(keyOf(r)), "4b7014b590536d45");
    r.options.router.name = "rrr";
    EXPECT_EQ(hex(keyOf(r)), "4531ab7c96c84483");
}

TEST(CacheKey, CoversEveryRequestField)
{
    CompileRequest r;

    r = baseRequest();
    r.ham = "qubits 3\npair 0 1 0 0 0.8\npair 1 2 0 0 0.7\n";
    expectKeyChanges("ham", r);

    r = baseRequest();
    r.device = "line:5";
    expectKeyChanges("device", r);

    r = baseRequest();
    r.gateset = "cz";
    expectKeyChanges("gateset", r);

    r = baseRequest();
    r.backend = "tket_like";
    expectKeyChanges("backend", r);

    r = baseRequest();
    r.time = 2.0;
    expectKeyChanges("time", r);
}

TEST(CacheKey, CoversEveryCompilerOptionsField)
{
    CompileRequest r;

    r = baseRequest();
    r.options.mapper = "anneal";
    expectKeyChanges("options.mapper", r);

    r = baseRequest();
    r.options.mapperTrials += 1;
    expectKeyChanges("options.mapperTrials", r);

    r = baseRequest();
    r.options.jobs += 1;
    expectKeyChanges("options.jobs", r);

    r = baseRequest();
    r.options.unifyCircuit = !r.options.unifyCircuit;
    expectKeyChanges("options.unifyCircuit", r);

    r = baseRequest();
    r.options.hybridSchedule = !r.options.hybridSchedule;
    expectKeyChanges("options.hybridSchedule", r);

    r = baseRequest();
    r.options.router.name = "rrr";
    expectKeyChanges("options.router.name", r);

    r = baseRequest();
    r.options.router.unifySwaps = !r.options.router.unifySwaps;
    expectKeyChanges("options.router.unifySwaps", r);

    r = baseRequest();
    r.options.router.maxSwapFactor += 1;
    expectKeyChanges("options.router.maxSwapFactor", r);

    r = baseRequest();
    r.options.router.rrrMaxRounds += 1;
    expectKeyChanges("options.router.rrrMaxRounds", r);

    r = baseRequest();
    r.options.router.rrrHistoryWeight += 0.25;
    expectKeyChanges("options.router.rrrHistoryWeight", r);

    r = baseRequest();
    r.options.router.rrrPresentWeight += 0.25;
    expectKeyChanges("options.router.rrrPresentWeight", r);

    r = baseRequest();
    r.options.tabu.maxIters += 1;
    expectKeyChanges("options.tabu.maxIters", r);

    r = baseRequest();
    r.options.tabu.tabuLowMul += 1;
    expectKeyChanges("options.tabu.tabuLowMul", r);

    r = baseRequest();
    r.options.tabu.tabuHighMul += 1;
    expectKeyChanges("options.tabu.tabuHighMul", r);

    r = baseRequest();
    r.options.tabu.stallLimit += 1;
    expectKeyChanges("options.tabu.stallLimit", r);

    r = baseRequest();
    {
        device::Topology topo =
            testgen::topologyFromSpec(r.device);
        std::mt19937_64 rng(1);
        r.options.noiseMap = std::make_shared<device::NoiseMap>(
            device::NoiseMap::synthetic(topo, rng));
    }
    expectKeyChanges("options.noiseMap", r);

    r = baseRequest();
    r.options.noiseLambda = 0.5;
    expectKeyChanges("options.noiseLambda", r);

    r = baseRequest();
    r.options.seed += 1;
    expectKeyChanges("options.seed", r);
}

TEST(CacheKey, DifferentNoiseMapsGetDifferentKeys)
{
    // The map's CONTENTS are keyed, not just its presence.
    auto withNoise = [](std::uint64_t rngSeed) {
        CompileRequest r = baseRequest();
        device::Topology topo =
            testgen::topologyFromSpec(r.device);
        std::mt19937_64 rng(rngSeed);
        r.options.noiseMap = std::make_shared<device::NoiseMap>(
            device::NoiseMap::synthetic(topo, rng));
        return keyOf(r);
    };
    EXPECT_NE(withNoise(1), withNoise(2));
    EXPECT_EQ(withNoise(3), withNoise(3));
}

TEST(CacheKey, HugeDeviceKeysWithoutDistances)
{
    // Keying reads the coupling list only: the largest device the
    // spec parser accepts keys at once, with no N^2 hop matrix.
    CompileRequest r = baseRequest();
    r.device = "grid:128x128";
    device::Topology topo = testgen::topologyFromSpec(r.device);
    ASSERT_EQ(topo.numQubits(), core::kMaxTopologyQubits);
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t key = CompileService::cacheKey(r, topo);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_EQ(key, CompileService::cacheKey(r, topo));
    EXPECT_NE(key, keyOf(baseRequest()));
    EXPECT_LT(seconds, 5.0);
}

TEST(CacheKey, TimeUsesExactBitsNotFormatting)
{
    CompileRequest a = baseRequest();
    CompileRequest b = baseRequest();
    a.time = 1.0;
    b.time = 1.0 + 1e-15;  // would round away in %g formatting
    EXPECT_NE(keyOf(a), keyOf(b));
}
