/**
 * @file
 * Device-scale routes pinned across builds: the fnv1a64 of every
 * SWAP (p, q, dressedOp) and every nnOps bucket for both routers on
 * a QAOA-REG-3 and an NNN Heisenberg instance at 200+ qubits.  Any
 * drift in candidate order, tie lists or rng draws changes the hash.
 * The constants come from the routers' original full-rescan
 * bookkeeping; only a deliberate change of the routing rule may
 * refresh them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "core/hash.h"
#include "core/router_registry.h"
#include "core/sweep.h"
#include "device/devices.h"
#include "qap/placement.h"

using namespace tqan;

namespace {

struct Pin
{
    core::Benchmark bench;
    int n;
    const char *device;
    const char *router;
    int swaps;
    const char *hash;
};

std::string
routeHash(const core::RoutingResult &r)
{
    std::uint64_t h = core::kFnv1a64Basis;
    for (const core::SwapStep &s : r.swaps) {
        int v[3] = {s.p, s.q, s.dressedOp};
        h = core::fnv1a64(v, sizeof(v), h);
    }
    for (const auto &bucket : r.nnOps) {
        int size = static_cast<int>(bucket.size());
        h = core::fnv1a64(&size, sizeof(size), h);
        h = core::fnv1a64(bucket.data(), bucket.size() * sizeof(int), h);
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

TEST(RoutePins, DeviceScaleRoutesAreStableAcrossBuilds)
{
    const Pin pins[] = {
        {core::Benchmark::QaoaReg3, 208, "heavyhex:9", "greedy", 2638,
         "2194b2b4e6a2d644"},
        {core::Benchmark::QaoaReg3, 208, "heavyhex:9", "rrr", 1138,
         "2e417802a2b2c4a2"},
        {core::Benchmark::NnnHeisenberg, 256, "grid:16x16", "greedy", 280,
         "17ea55e5ac5b2879"},
        {core::Benchmark::NnnHeisenberg, 256, "grid:16x16", "rrr", 282,
         "e2da9a5ddcbc19ba"},
        {core::Benchmark::QaoaReg3, 574, "heavyhex:15", "rrr", 5744,
         "b0f934e5a8107749"},
    };
    for (const Pin &pin : pins) {
        core::SweepUnit u = core::buildSweepUnit(pin.bench, pin.n, 0, 0);
        device::Topology topo = device::deviceByName(pin.device);
        qap::Placement init = qap::greedyPlacement(
            qap::interactionGraphOf(*u.step), topo);
        std::mt19937_64 rng(1);
        core::RouteRequest req;
        req.circuit = u.step.get();
        req.initial = &init;
        req.topo = &topo;
        req.rng = &rng;
        req.opt.name = pin.router;
        core::RoutingResult r = core::routerByName(pin.router).route(req);
        ASSERT_TRUE(core::routingIsValid(*u.step, topo, r));
        EXPECT_EQ(r.swapCount(), pin.swaps)
            << pin.router << " on " << pin.device;
        EXPECT_EQ(routeHash(r), pin.hash)
            << pin.router << " on " << pin.device;
    }
}
