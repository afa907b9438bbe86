/**
 * @file
 * Router registry contract: the built-in routers are registered,
 * lookups are by exact name with a helpful failure message, and the
 * BackendInfo capability descriptors advertise which router each
 * backend compiles with.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/backend.h"
#include "core/router_registry.h"

using namespace tqan;

TEST(RouterRegistry, BuiltInsRegisteredAndSorted)
{
    auto names = core::routerNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "greedy");
    EXPECT_EQ(names[1], "rrr");
    EXPECT_TRUE(core::hasRouter("greedy"));
    EXPECT_TRUE(core::hasRouter("rrr"));
    EXPECT_FALSE(core::hasRouter("bogus"));
}

TEST(RouterRegistry, LookupReturnsNamedRouter)
{
    EXPECT_EQ(core::routerByName("greedy").name(), "greedy");
    EXPECT_EQ(core::routerByName("rrr").name(), "rrr");
}

TEST(RouterRegistry, UnknownNameThrowsListingRegistered)
{
    try {
        core::routerByName("bogus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("greedy"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rrr"), std::string::npos) << msg;
    }
}

TEST(RouterRegistry, BackendInfoAdvertisesRouter)
{
    EXPECT_EQ(core::backendByName("2qan").info().router, "greedy");
    EXPECT_EQ(core::backendByName("2qan_rrr").info().router, "rrr");
    // Both 2QAN pipelines name a *registered* router; baselines may
    // carry a descriptive label instead.
    for (const char *be : {"2qan", "2qan_rrr"})
        EXPECT_TRUE(core::hasRouter(
            core::backendByName(be).info().router))
            << be;
}
