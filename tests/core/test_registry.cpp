/**
 * @file
 * The one registry shape (core/registry.h), checked once per table:
 * mappers, routers and compiler backends.  Names come back sorted, a
 * lookup returns the instance of that name, an unknown name is
 * reported with the table's kind and every registered name,
 * concurrent first lookups all see one instance, and a table with
 * two entries of one name is refused when it is built.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/registry.h"
#include "core/router_registry.h"
#include "qap/mapper.h"

using namespace tqan;

namespace {

struct Table
{
    const char *kind;
    std::vector<std::string> builtins;  ///< sorted
    std::vector<std::string> (*names)();
    /** Address and name() of the entry `name` (throws like get()). */
    const void *(*address)(const std::string &name);
    std::string (*nameOf)(const std::string &name);
};

const std::vector<Table> &
tables()
{
    static const std::vector<Table> t = {
        {"mapper",
         {"anneal", "greedy", "identity", "line", "tabu"},
         &qap::mapperNames,
         [](const std::string &n) -> const void * {
             return &qap::mapperByName(n);
         },
         [](const std::string &n) { return qap::mapperByName(n).name(); }},
        {"router",
         {"greedy", "rrr"},
         &core::routerNames,
         [](const std::string &n) -> const void * {
             return &core::routerByName(n);
         },
         [](const std::string &n) { return core::routerByName(n).name(); }},
        {"compiler backend",
         {"2qan", "2qan_rrr", "ic_qaoa", "paulihedral_like",
          "qiskit_sabre", "tket_like"},
         &core::backendNames,
         [](const std::string &n) -> const void * {
             return &core::backendByName(n);
         },
         [](const std::string &n) {
             return core::backendByName(n).name();
         }},
    };
    return t;
}

} // namespace

TEST(Registry, ConcurrentFirstLookupsShareOneInstance)
{
    // Runs first in this file so, in a per-test process, these are
    // the tables' first lookups.
    constexpr int kThreads = 8;
    for (const Table &t : tables()) {
        const std::string name = t.builtins.front();
        std::vector<const void *> seen(kThreads, nullptr);
        std::atomic<int> ready{0};
        std::vector<std::thread> pool;
        for (int i = 0; i < kThreads; ++i)
            pool.emplace_back([&, i]() {
                ready.fetch_add(1);
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                seen[i] = t.address(name);
            });
        for (auto &th : pool)
            th.join();
        for (const void *p : seen)
            EXPECT_EQ(p, seen.front()) << t.kind;
        EXPECT_NE(seen.front(), nullptr) << t.kind;
    }
}

TEST(Registry, NamesAreSortedAndLookupIsExact)
{
    for (const Table &t : tables()) {
        EXPECT_EQ(t.names(), t.builtins) << t.kind;
        for (const std::string &name : t.builtins) {
            EXPECT_EQ(t.nameOf(name), name) << t.kind;
            EXPECT_EQ(t.address(name), t.address(name)) << t.kind;
        }
    }
}

TEST(Registry, UnknownNameStatesKindAndListsEveryEntry)
{
    for (const Table &t : tables()) {
        try {
            t.address("bogus");
            ADD_FAILURE() << t.kind << ": expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            std::string known;
            for (const std::string &name : t.builtins)
                known += (known.empty() ? "" : ", ") + name;
            EXPECT_EQ(std::string(e.what()),
                      "unknown " + std::string(t.kind) +
                          " 'bogus' (registered: " + known + ")");
        }
    }
}

TEST(Registry, DuplicateNamesAreRejectedAtConstruction)
{
    struct Entry
    {
        virtual ~Entry() = default;
        virtual std::string name() const = 0;
    };
    struct A : Entry
    {
        std::string name() const override { return "a"; }
    };
    struct AlsoA : Entry
    {
        std::string name() const override { return "a"; }
    };
    EXPECT_THROW((core::Registry<Entry>::of<A, AlsoA>("entry")),
                 std::logic_error);
    EXPECT_EQ(core::Registry<Entry>::of<A>("entry").names(),
              std::vector<std::string>{"a"});
}
