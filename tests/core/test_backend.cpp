/**
 * @file
 * Tests of the unified CompilerBackend registry: every compiler in
 * the repo is reachable by name, produces a consistent CompileResult,
 * and is scored the way the paper scores its class.
 */

#include <gtest/gtest.h>

#include "core/backend.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"

using namespace tqan;
using namespace tqan::core;

namespace {

CompileJob
jobFor(const qcir::Circuit &step, std::uint64_t seed)
{
    CompileJob job;
    job.step = &step;
    job.options.seed = seed;
    return job;
}

} // namespace

TEST(BackendRegistry, AllCompilersAreRegistered)
{
    for (const char *name : {"2qan", "qiskit_sabre", "tket_like",
                             "ic_qaoa", "paulihedral_like"}) {
        EXPECT_TRUE(hasBackend(name)) << name;
        EXPECT_EQ(backendByName(name).name(), name);
    }
    EXPECT_GE(backendNames().size(), 5u);
}

TEST(BackendRegistry, UnknownNameThrowsWithKnownNames)
{
    EXPECT_FALSE(hasBackend("qiskit"));
    try {
        backendByName("qiskit");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("qiskit_sabre"),
                  std::string::npos);
    }
}

TEST(BackendRegistry, TqanBackendMatchesDirectCompiler)
{
    std::mt19937_64 rng(91);
    auto h = ham::nnnHeisenberg(10, rng);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::montreal27();

    auto viaBackend =
        backendByName("2qan").compile(jobFor(step, 92), topo);

    CompilerOptions opt;
    opt.seed = 92;
    auto direct = TqanCompiler(topo, opt).compile(step);

    EXPECT_EQ(viaBackend.initialLayout(), direct.initialLayout());
    EXPECT_EQ(viaBackend.sched.swapCount, direct.sched.swapCount);
    EXPECT_EQ(viaBackend.sched.deviceCircuit.size(),
              direct.sched.deviceCircuit.size());
}

TEST(BackendRegistry, EveryCircuitBackendFillsTheCommonResult)
{
    std::mt19937_64 rng(93);
    auto g = graph::randomRegularGraph(10, 3, rng);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::montreal27();

    for (const char *name :
         {"2qan", "qiskit_sabre", "tket_like", "ic_qaoa"}) {
        const auto &b = backendByName(name);
        auto res = b.compile(jobFor(step, 94), topo);

        EXPECT_TRUE(qap::placementIsValid(res.sched.initialMap,
                                          topo.numQubits()))
            << name;
        EXPECT_TRUE(qap::placementIsValid(res.sched.finalMap,
                                          topo.numQubits()))
            << name;
        EXPECT_GT(res.sched.deviceCircuit.size(), 0) << name;
        EXPECT_GE(res.sched.swapCount, 0) << name;
        EXPECT_FALSE(res.passTimes.empty()) << name;

        auto m = b.metrics(res, step, device::GateSet::Cnot);
        EXPECT_GT(m.native2q, 0) << name;
        EXPECT_GT(m.depth2q, 0) << name;
        EXPECT_GT(m.native2qNoMap, 0) << name;
        // Routed circuits can never beat the all-to-all NoMap bound.
        EXPECT_GE(m.native2q, m.native2qNoMap) << name;
    }
}

TEST(BackendRegistry, PaulihedralConsumesHamiltonian)
{
    std::mt19937_64 rng(95);
    auto h = ham::nnnHeisenberg(8, rng);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::allToAll(8);
    const auto &b = backendByName("paulihedral_like");

    // Without the Hamiltonian the job is rejected...
    EXPECT_THROW(b.compile(jobFor(step, 96), topo),
                 std::invalid_argument);

    // ... with it, the block-wise compiler runs.
    CompileJob job = jobFor(step, 96);
    job.hamiltonian = &h;
    auto res = b.compile(job, topo);
    EXPECT_GT(res.sched.deviceCircuit.size(), 0);
    auto m = b.metrics(res, step, device::GateSet::Cnot);
    EXPECT_GT(m.native2q, 0);
}

TEST(BackendRegistry, StepIsRequiredByCircuitBackends)
{
    device::Topology topo = device::line(4);
    CompileJob empty;
    for (const char *name :
         {"2qan", "qiskit_sabre", "tket_like", "ic_qaoa"})
        EXPECT_THROW(backendByName(name).compile(empty, topo),
                     std::invalid_argument)
            << name;
}

TEST(BackendRegistry, SeedsAreReproduciblePerBackend)
{
    std::mt19937_64 rng(97);
    auto h = ham::nnnIsing(10, rng);
    auto step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::montreal27();

    for (const char *name :
         {"2qan", "qiskit_sabre", "tket_like", "ic_qaoa"}) {
        const auto &b = backendByName(name);
        auto a1 = b.compile(jobFor(step, 98), topo);
        auto a2 = b.compile(jobFor(step, 98), topo);
        EXPECT_EQ(a1.sched.swapCount, a2.sched.swapCount) << name;
        EXPECT_EQ(a1.sched.deviceCircuit.size(),
                  a2.sched.deviceCircuit.size())
            << name;
        EXPECT_EQ(a1.sched.initialMap, a2.sched.initialMap) << name;
    }
}
