/**
 * @file
 * Tests of the pluggable mapper registry and the deterministic
 * parallel Tabu trials.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/compiler.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"
#include "qap/mapper.h"

using namespace tqan;
using namespace tqan::qap;

namespace {

MapperRequest
requestFor(const qcir::Circuit &c, const device::Topology &topo,
           const linalg::FlatMatrix &dist, std::uint64_t seed)
{
    MapperRequest req;
    req.circuit = &c;
    req.topo = &topo;
    req.dist = &dist;
    req.seed = seed;
    return req;
}

} // namespace

TEST(MapperRegistry, BuiltinsAreRegistered)
{
    for (const char *name :
         {"tabu", "anneal", "greedy", "line", "identity"}) {
        EXPECT_TRUE(hasMapper(name)) << name;
        EXPECT_EQ(mapperByName(name).name(), name);
    }
}

TEST(MapperRegistry, UnknownNameThrowsWithKnownNames)
{
    EXPECT_FALSE(hasMapper("nope"));
    try {
        mapperByName("nope");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The error must help the caller: list what IS registered.
        EXPECT_NE(std::string(e.what()).find("tabu"),
                  std::string::npos);
    }
}

TEST(MapperRegistry, EveryBuiltinProducesValidPlacement)
{
    std::mt19937_64 rng(51);
    auto h = ham::nnnHeisenberg(8, rng);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(3, 3);
    const auto &dist = topo.hopDistances();

    for (const auto &name : mapperNames()) {
        auto p = mapperByName(name).map(
            requestFor(step, topo, dist, 52));
        EXPECT_TRUE(placementIsValid(p, topo.numQubits())) << name;
        EXPECT_EQ(p.size(), 8u) << name;
    }
}

TEST(TabuParallel, JobsDoNotChangeThePlacement)
{
    // The determinism contract: parallel trials derive their seeds as
    // seed + trial, so any jobs value must give a bit-identical
    // placement.
    std::mt19937_64 rng(61);
    auto h = ham::nnnHeisenberg(12, rng);
    auto f = flowMatrix(h);
    device::Topology topo = device::montreal27();
    const auto &dist = topo.hopDistances();

    for (std::uint64_t seed : {7ull, 62ull, 1000003ull}) {
        Placement seq = bestOfTabu(f, dist, seed, 5, TabuOptions(), 1);
        for (int jobs : {2, 4, 16}) {
            Placement par =
                bestOfTabu(f, dist, seed, 5, TabuOptions(), jobs);
            EXPECT_EQ(seq, par)
                << "seed " << seed << " jobs " << jobs;
        }
    }

    // Device scale: a filled heavyhex:9, so up to four workers read
    // one shared instance while each reuses its own delta table.
    device::Topology hh = device::deviceByName("heavyhex:9");
    auto big = flowMatrix(ham::nnnHeisenberg(208, rng));
    TabuOptions opt;
    opt.maxIters = 80;
    Placement seq = bestOfTabu(big, hh.hopDistances(), 63, 5, opt, 1);
    for (int jobs : {2, 4})
        EXPECT_EQ(bestOfTabu(big, hh.hopDistances(), 63, 5, opt, jobs),
                  seq)
            << "heavyhex:9 jobs " << jobs;
}

TEST(TabuParallel, ForkedChildFinishesWithTheSequentialPlacement)
{
    // Pool threads do not survive fork(): a child (the campaign
    // runner's process mode) asking for four trial workers must run
    // the trials itself rather than wait for workers that are gone.
    std::mt19937_64 rng(91);
    device::Topology hh = device::deviceByName("heavyhex:9");
    auto flow = flowMatrix(ham::nnnHeisenberg(208, rng));
    TabuOptions opt;
    opt.maxIters = 80;
    const Placement seq = bestOfTabu(flow, hh, 92, 5, opt, 1);
    // The pool has started and run trials before the fork.
    ASSERT_EQ(bestOfTabu(flow, hh, 92, 5, opt, 4), seq);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int code = 2;
        try {
            code = bestOfTabu(flow, hh, 92, 5, opt, 4) == seq ? 0 : 1;
        } catch (...) {
        }
        _exit(code);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int status = 0;
    pid_t done = 0;
    while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (done == 0) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        FAIL() << "forked child still running after 60 s";
    }
    ASSERT_EQ(done, pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: placement differs from jobs = 1; 2: exception";
}

TEST(TabuParallel, CompilerJobsProduceIdenticalSchedules)
{
    // End-to-end: --jobs N must not change any compilation output.
    std::mt19937_64 rng(71);
    auto h = ham::nnnIsing(10, rng);
    auto step = ham::trotterStep(h, 1.0);

    core::CompilerOptions opt;
    opt.seed = 72;
    opt.jobs = 1;
    core::TqanCompiler seq(device::montreal27(), opt);
    auto a = seq.compile(step);

    opt.jobs = 4;
    core::TqanCompiler par(device::montreal27(), opt);
    auto b = par.compile(step);

    EXPECT_EQ(a.initialLayout(), b.initialLayout());
    EXPECT_EQ(a.sched.swapCount, b.sched.swapCount);
    EXPECT_EQ(a.sched.initialMap, b.sched.initialMap);
    EXPECT_EQ(a.sched.finalMap, b.sched.finalMap);
    ASSERT_EQ(a.sched.deviceCircuit.size(),
              b.sched.deviceCircuit.size());
    for (int i = 0; i < a.sched.deviceCircuit.size(); ++i) {
        EXPECT_EQ(a.sched.deviceCircuit.op(i).q0,
                  b.sched.deviceCircuit.op(i).q0);
        EXPECT_EQ(a.sched.deviceCircuit.op(i).q1,
                  b.sched.deviceCircuit.op(i).q1);
    }
}

TEST(TabuParallel, NoiseAwareTrialsShareTheSamePath)
{
    // The noise-aware branch routes through the same bestOfTabu as
    // the hop-distance one: jobs-independence must hold there too.
    device::Topology topo = device::montreal27();
    std::mt19937_64 nrng(81);
    auto nm = device::NoiseMap::synthetic(topo, nrng);
    auto dist = nm.noiseAwareDistances(1.0);

    std::mt19937_64 rng(82);
    auto h = ham::nnnHeisenberg(10, rng);
    auto f = flowMatrix(h);

    Placement seq = bestOfTabu(f, dist, 83, 5, TabuOptions(), 1);
    Placement par = bestOfTabu(f, dist, 83, 5, TabuOptions(), 8);
    EXPECT_EQ(seq, par);
    EXPECT_TRUE(placementIsValid(seq, topo.numQubits()));
}

TEST(TabuParallel, RejectsZeroTrials)
{
    device::Topology topo = device::line(4);
    linalg::FlatMatrix f(4, 4);
    EXPECT_THROW(
        bestOfTabu(f, topo.hopDistances(), 1, 0, TabuOptions(), 2),
        std::invalid_argument);
}
