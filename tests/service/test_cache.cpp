/**
 * @file
 * Tests of the content-addressed compile cache's on-disk store:
 * round trip, restart persistence, and — the part that matters — the
 * verified load.  A truncated tail, a flipped byte, or a foreign
 * header must never be served back; the store is untrusted input.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/hash.h"
#include "robust/fault.h"
#include "service/cache.h"

using namespace tqan;
using service::CompileCache;

namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_cache_" + name + ".bin";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Insert a canonical (request, payload) pair keyed by content. */
void
put(CompileCache &c, const std::string &req, const std::string &pay)
{
    c.insert(core::fnv1a64(req), req, pay);
}

bool
get(CompileCache &c, const std::string &req, std::string *pay)
{
    return c.lookup(core::fnv1a64(req), req, pay);
}

} // namespace

TEST(CompileCache, InMemoryRoundTrip)
{
    CompileCache c;
    std::string pay;
    EXPECT_FALSE(get(c, "req-a", &pay));
    put(c, "req-a", "payload-a");
    ASSERT_TRUE(get(c, "req-a", &pay));
    EXPECT_EQ(pay, "payload-a");
    EXPECT_EQ(c.size(), 1u);
}

TEST(CompileCache, LookupComparesRequestBytesNotJustTheKey)
{
    CompileCache c;
    std::string req = "req-b";
    c.insert(core::fnv1a64(req), req, "payload-b");
    // Same key, different request bytes: a (synthetic) collision
    // must miss, not serve the other request's payload.
    std::string pay;
    EXPECT_FALSE(c.lookup(core::fnv1a64(req), "req-OTHER", &pay));
}

TEST(CompileCache, PersistsAcrossReopen)
{
    std::string path = tempPath("persist");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");
        put(c, "req-2", "pay-2");
    }
    CompileCache again(path);
    EXPECT_EQ(again.size(), 2u);
    EXPECT_EQ(again.loadInfo().loadedEntries, 2u);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    EXPECT_FALSE(again.loadInfo().rebuilt);
    std::string pay;
    ASSERT_TRUE(get(again, "req-2", &pay));
    EXPECT_EQ(pay, "pay-2");
    std::remove(path.c_str());
}

TEST(CompileCache, ReinsertingIdenticalEntryDoesNotGrowTheFile)
{
    std::string path = tempPath("reinsert");
    std::remove(path.c_str());
    CompileCache c(path);
    put(c, "req-1", "pay-1");
    std::size_t sz = fileBytes(path).size();
    put(c, "req-1", "pay-1");
    EXPECT_EQ(fileBytes(path).size(), sz);
    std::remove(path.c_str());
}

TEST(CompileCache, TruncatedTailIsDroppedNotServed)
{
    std::string path = tempPath("truncated");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");
        put(c, "req-2", "pay-2");
    }
    // Chop mid-entry: a torn append from a crash.
    std::string bytes = fileBytes(path);
    writeBytes(path, bytes.substr(0, bytes.size() - 3));

    CompileCache c(path);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_GT(c.loadInfo().droppedBytes, 0u);
    std::string pay;
    EXPECT_TRUE(get(c, "req-1", &pay));
    EXPECT_FALSE(get(c, "req-2", &pay));
    // And the file was truncated back to the verified prefix, so
    // the torn bytes can never resurface.
    CompileCache again(path);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(again.size(), 1u);
    std::remove(path.c_str());
}

TEST(CompileCache, CorruptPayloadByteFailsTheChecksum)
{
    std::string path = tempPath("corrupt");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");
    }
    std::string bytes = fileBytes(path);
    bytes[bytes.size() - 1] ^= 0x01;  // flip one payload byte
    writeBytes(path, bytes);

    CompileCache c(path);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_GT(c.loadInfo().droppedBytes, 0u);
    std::string pay;
    EXPECT_FALSE(get(c, "req-1", &pay));
    std::remove(path.c_str());
}

TEST(CompileCache, ForeignHeaderRebuildsEmpty)
{
    std::string path = tempPath("foreign");
    writeBytes(path, "this is not a tqan cache file at all");
    CompileCache c(path);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_TRUE(c.loadInfo().rebuilt);
    // The rebuilt store must work: insert, reopen, hit.
    put(c, "req-1", "pay-1");
    CompileCache again(path);
    std::string pay;
    EXPECT_TRUE(get(again, "req-1", &pay));
    EXPECT_FALSE(again.loadInfo().rebuilt);
    std::remove(path.c_str());
}

TEST(CompileCache, WrongKeyForContentIsRejectedOnLoad)
{
    std::string path = tempPath("badkey");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");
    }
    // Flip a key bit and recompute the record checksum (it covers
    // the key): lengths and checksum still verify, yet key !=
    // fnv1a64(request) — load must drop it (the key IS the content
    // address).
    std::string bytes = fileBytes(path);
    bytes[16] ^= 0x01;  // first key byte, right after the header
    std::uint64_t sum =
        core::fnv1a64(bytes.data() + 36, bytes.size() - 36,
                      core::fnv1a64(bytes.data() + 16, 8));
    for (int i = 0; i < 8; ++i)  // u64 checksum at offset 28
        bytes[28 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
    writeBytes(path, bytes);
    CompileCache c(path);
    EXPECT_EQ(c.size(), 0u);
    std::remove(path.c_str());
}

TEST(CompileCache, InjectedPartialAppendIsDroppedAndRecompilesIdentically)
{
    std::string path = tempPath("torn_append");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");

        // Crash mid-append: half of req-2's entry reaches the disk.
        // insert() degrades gracefully — the entry is still served
        // from memory this run — and the torn tail must be dropped
        // on the next open.
        robust::setFaultPlan(
            robust::parseFaultPlan("cache.append:1:fail"));
        put(c, "req-2", "pay-2");
        robust::clearFaultPlan();
        std::string pay;
        ASSERT_TRUE(get(c, "req-2", &pay));
        EXPECT_EQ(pay, "pay-2");
    }
    {
        CompileCache again(path);
        EXPECT_EQ(again.size(), 1u);
        EXPECT_GT(again.loadInfo().droppedBytes, 0u);
        std::string pay;
        EXPECT_FALSE(get(again, "req-2", &pay));
        // "Recompile" the lost entry: the identical insert must land
        // durably this time.
        put(again, "req-2", "pay-2");
    }
    CompileCache third(path);
    EXPECT_EQ(third.size(), 2u);
    EXPECT_EQ(third.loadInfo().droppedBytes, 0u);
    std::string pay;
    ASSERT_TRUE(get(third, "req-2", &pay));
    EXPECT_EQ(pay, "pay-2");
    std::remove(path.c_str());
}

TEST(CompileCache, InjectedLookupMissForcesOneIdenticalRecompute)
{
    CompileCache c;
    put(c, "req-1", "pay-1");
    robust::setFaultPlan(
        robust::parseFaultPlan("cache.lookup:1:fail"));
    std::string pay;
    EXPECT_FALSE(get(c, "req-1", &pay));  // forced miss
    robust::clearFaultPlan();
    // The caller recompiles and re-inserts; identical bytes, and the
    // next lookup hits again.
    put(c, "req-1", "pay-1");
    EXPECT_EQ(c.size(), 1u);
    ASSERT_TRUE(get(c, "req-1", &pay));
    EXPECT_EQ(pay, "pay-1");
}

TEST(CompileCache, TransientOpenFaultIsRetriedAndCounted)
{
    std::string path = tempPath("open_retry");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-1");
    }
    robust::setFaultPlan(
        robust::parseFaultPlan("cache.open:1:fail"));
    CompileCache c(path);
    robust::clearFaultPlan();
    EXPECT_GE(c.loadInfo().retries, 1u);
    std::string pay;
    ASSERT_TRUE(get(c, "req-1", &pay));
    EXPECT_EQ(pay, "pay-1");
    std::remove(path.c_str());
}

TEST(CompileCache, LaterEntryForSameKeyWinsOnLoad)
{
    std::string path = tempPath("laterwins");
    std::remove(path.c_str());
    {
        CompileCache c(path);
        put(c, "req-1", "pay-old");
    }
    {
        // A second process run that recomputed the entry (e.g.
        // after a payload-format change would have changed the
        // canonical text; here we force it by hand).
        CompileCache c(path);
        c.insert(core::fnv1a64("req-1"), "req-1", "pay-new");
    }
    CompileCache c(path);
    std::string pay;
    ASSERT_TRUE(get(c, "req-1", &pay));
    EXPECT_EQ(pay, "pay-new");
    std::remove(path.c_str());
}

TEST(CompileCache, InjectedFsyncFaultKeepsTheEntryServedFromMemory)
{
    std::string path = tempPath("fsync");
    std::remove(path.c_str());
    CompileCache c(path);
    robust::setFaultPlan(robust::parseFaultPlan("cache.fsync:1"));
    put(c, "req-1", "pay-1");  // must not throw
    robust::clearFaultPlan();
    std::string pay;
    ASSERT_TRUE(get(c, "req-1", &pay));
    EXPECT_EQ(pay, "pay-1");
    EXPECT_EQ(c.size(), 1u);
    std::remove(path.c_str());
}

TEST(CompileCache, VersionOneStoreOpensRebuiltAndThenRoundTrips)
{
    // A store in the previous layout: "TQANCSv1" header, then
    // u64 key, u32 reqLen, u32 payLen,
    // u64 fnv1a64(request || payload), request, payload.
    auto le = [](std::uint64_t v, int n) {
        std::string s;
        for (int i = 0; i < n; ++i)
            s += static_cast<char>((v >> (8 * i)) & 0xff);
        return s;
    };
    std::string req = "req-1", pay = "pay-1";
    std::string v1 = std::string("TQANCSv1", 8) + le(1, 4) + le(0, 4) +
                     le(core::fnv1a64(req), 8) + le(req.size(), 4) +
                     le(pay.size(), 4) +
                     le(core::fnv1a64(pay.data(), pay.size(),
                                      core::fnv1a64(req)),
                        8) +
                     req + pay;
    std::string path = tempPath("v1");
    writeBytes(path, v1);
    {
        CompileCache c(path);
        EXPECT_TRUE(c.loadInfo().rebuilt);
        EXPECT_EQ(c.size(), 0u);
        std::string got;
        EXPECT_FALSE(get(c, req, &got));
        put(c, "req-2", "pay-2");  // the rebuilt store accepts inserts
    }
    CompileCache again(path);
    EXPECT_FALSE(again.loadInfo().rebuilt);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(again.size(), 1u);
    std::string got;
    ASSERT_TRUE(get(again, "req-2", &got));
    EXPECT_EQ(got, "pay-2");
    std::remove(path.c_str());
}
