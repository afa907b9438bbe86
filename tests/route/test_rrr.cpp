/**
 * @file
 * Properties of the negotiated-congestion ripup-and-reroute router:
 * convergence on adversarial dense interaction graphs (the livelock
 * guard never trips, every route validates), rng-independence of the
 * rrr phase itself, and per-router batch determinism — for every
 * registered router the whole compile grid is bit-identical across
 * pool sizes and submission orders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

#include "core/batch.h"
#include "core/router.h"
#include "core/router_registry.h"
#include "core/sweep.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/qaoa.h"
#include "ham/trotter.h"
#include "qap/qap.h"
#include "testgen/scenario.h"

using namespace tqan;

namespace {

/** Identity placement: logical i on device qubit i — the adversarial
 * baseline, no mapper cleanup before routing. */
qap::Placement
identityPlacement(int n)
{
    qap::Placement p(n);
    std::iota(p.begin(), p.end(), 0);
    return p;
}

core::RoutingResult
routeWith(const std::string &router, const qcir::Circuit &step,
          const qap::Placement &init, const device::Topology &topo,
          std::uint64_t rngSeed)
{
    std::mt19937_64 rng(rngSeed);
    core::RouteRequest req;
    req.circuit = &step;
    req.initial = &init;
    req.topo = &topo;
    req.rng = &rng;
    req.opt.name = router;
    return core::routerByName(router).route(req);
}

} // namespace

TEST(Rrr, ConvergesOnAdversarialDenseGraphs)
{
    // Dense Erdos-Renyi QAOA layers routed from an identity
    // placement: nearly every pair of logical qubits is a net, so
    // epochs stay contended until the very end.  route() throwing
    // would mean the livelock guard tripped (no convergence).
    std::mt19937_64 gen(77);
    for (int n : {8, 10, 12}) {
        for (double p : {0.6, 0.9}) {
            auto g = graph::erdosRenyi(n, p, gen);
            auto h = ham::qaoaLayerHamiltonian(
                g, ham::qaoaFixedAngles(1)[0]);
            qcir::Circuit step = ham::trotterStep(h, 1.0);
            for (const auto &topo :
                 {device::grid(4, 4), device::sycamore54()}) {
                SCOPED_TRACE(topo.name() + " n=" +
                             std::to_string(n));
                core::RoutingResult r;
                ASSERT_NO_THROW(
                    r = routeWith("rrr", step,
                                  identityPlacement(n), topo, 1));
                EXPECT_TRUE(core::routingIsValid(step, topo, r));
            }
        }
    }
}

TEST(Rrr, ConvergesOnTestgenScenarios)
{
    // Random testgen workloads (random connected topologies, random
    // interaction graphs, adversarial shapes) must all route validly
    // with both registered routers.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        testgen::Scenario s = testgen::randomScenario(seed);
        int n = s.step->numQubits();
        if (n > s.topo.numQubits())
            continue;
        for (const auto &router : core::routerNames()) {
            SCOPED_TRACE(s.name + " router=" + router);
            core::RoutingResult r;
            ASSERT_NO_THROW(r = routeWith(router, *s.step,
                                          identityPlacement(n),
                                          s.topo, seed));
            EXPECT_TRUE(core::routingIsValid(*s.step, s.topo, r));
        }
    }
}

TEST(Rrr, NeverDrawsFromTheRng)
{
    // The rrr phase breaks every tie structurally, so two runs with
    // different rng streams emit identical SWAP lists.
    std::mt19937_64 gen(31);
    auto g = graph::erdosRenyi(10, 0.7, gen);
    auto h = ham::qaoaLayerHamiltonian(g, ham::qaoaFixedAngles(1)[0]);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::grid(4, 4);
    auto a = routeWith("rrr", step, identityPlacement(10), topo, 1);
    auto b =
        routeWith("rrr", step, identityPlacement(10), topo, 999);
    ASSERT_EQ(a.swaps.size(), b.swaps.size());
    for (size_t i = 0; i < a.swaps.size(); ++i) {
        EXPECT_EQ(a.swaps[i].p, b.swaps[i].p);
        EXPECT_EQ(a.swaps[i].q, b.swaps[i].q);
        EXPECT_EQ(a.swaps[i].dressedOp, b.swaps[i].dressedOp);
    }
    EXPECT_EQ(a.initial, b.initial);
    EXPECT_EQ(a.finalMap, b.finalMap);
    EXPECT_EQ(a.nnOps, b.nnOps);
}

namespace {

/** A dense compile grid pinned to one router override. */
core::SweepSpec
denseSpec(const std::string &router)
{
    core::SweepSpec s;
    s.experiment = "routetest";
    s.benchmarks = {core::Benchmark::QaoaDense,
                    core::Benchmark::QaoaReg3};
    s.devices = {{"grid:4x4", ""}, {"sycamore", ""}};
    s.backends = {"2qan"};
    s.sizes = {8, 10};
    s.trials = 2;
    s.router = router;
    return s;
}

std::vector<std::string>
csvRows(const std::vector<core::SweepRow> &rows)
{
    std::vector<std::string> out;
    for (const auto &r : rows)
        out.push_back(core::toCsv(r));
    return out;
}

} // namespace

TEST(Rrr, PerRouterSweepIdenticalForJobs1And8)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::BatchCompiler seq({1});
        core::BatchCompiler par({8});
        auto rows1 = core::runSweep(denseSpec(router), seq);
        auto rows8 = core::runSweep(denseSpec(router), par);
        ASSERT_FALSE(rows1.empty());
        for (const auto &r : rows1)
            EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(csvRows(rows1), csvRows(rows8));
    }
}

TEST(Rrr, PerRouterShuffledSubmissionIdenticalPerJob)
{
    for (const auto &router : core::routerNames()) {
        SCOPED_TRACE(router);
        core::ExpandedSweep ex =
            core::expandSweep(denseSpec(router));
        core::BatchCompiler bc({4});
        auto ordered = bc.run(ex.jobs);

        std::vector<core::BatchJob> shuffled = ex.jobs;
        std::mt19937_64 rng(5);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        auto permuted = bc.run(shuffled);

        std::map<std::string, const core::BatchJobResult *> byTag;
        for (const auto &r : permuted)
            byTag[r.tag] = &r;
        ASSERT_EQ(byTag.size(), ordered.size());
        for (const auto &ra : ordered) {
            SCOPED_TRACE(ra.tag);
            const auto *rb = byTag.at(ra.tag);
            ASSERT_TRUE(ra.ok()) << ra.error;
            ASSERT_TRUE(rb->ok()) << rb->error;
            EXPECT_EQ(ra.result.sched.deviceCircuit.str(),
                      rb->result.sched.deviceCircuit.str());
            EXPECT_EQ(ra.metrics.swaps, rb->metrics.swaps);
            EXPECT_EQ(ra.metrics.depth2q, rb->metrics.depth2q);
        }
    }
}
