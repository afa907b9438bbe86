/**
 * @file
 * Tests of the append-only campaign checkpoint: round trip,
 * later-entry-wins, the verified load (torn tails and foreign
 * headers must never resurface as finished shards), and the
 * fault-injected crash-mid-append paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/hash.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"

using namespace tqan;
using robust::Checkpoint;

namespace {

struct PlanGuard
{
    ~PlanGuard() { robust::clearFaultPlan(); }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_ckpt_" + name + ".bin";
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

} // namespace

TEST(Checkpoint, DisabledJournalNoops)
{
    Checkpoint c;
    EXPECT_FALSE(c.enabled());
    c.append(0, "payload");  // must not crash
    EXPECT_TRUE(c.entries().empty());
}

TEST(Checkpoint, RoundTripsAcrossReopen)
{
    std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        ASSERT_TRUE(c.enabled());
        c.append(0, "shard-zero");
        c.append(7, "shard-seven");
        c.append(Checkpoint::kMetaShard, "tag v1");
    }
    Checkpoint again(path);
    EXPECT_EQ(again.loadInfo().loadedEntries, 3u);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    ASSERT_EQ(again.entries().size(), 3u);
    EXPECT_EQ(again.entries().at(0), "shard-zero");
    EXPECT_EQ(again.entries().at(7), "shard-seven");
    EXPECT_EQ(again.entries().at(Checkpoint::kMetaShard), "tag v1");
    std::remove(path.c_str());
}

TEST(Checkpoint, LaterEntryForSameShardWins)
{
    std::string path = tempPath("laterwins");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(3, "first");
        c.append(3, "second");
    }
    Checkpoint again(path);
    EXPECT_EQ(again.entries().at(3), "second");
    std::remove(path.c_str());
}

TEST(Checkpoint, TornTailIsTruncatedNotReplayed)
{
    std::string path = tempPath("torn");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(0, "durable");
        c.append(1, "torn-away");
    }
    std::string bytes = fileBytes(path);
    writeBytes(path, bytes.substr(0, bytes.size() - 4));

    Checkpoint c(path);
    EXPECT_EQ(c.entries().size(), 1u);
    EXPECT_GT(c.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(c.entries().count(1), 0u);
    // The file was truncated back to the verified prefix.
    Checkpoint again(path);
    EXPECT_EQ(again.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(again.entries().size(), 1u);
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptPayloadFailsTheChecksum)
{
    std::string path = tempPath("corrupt");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(0, "payload");
    }
    std::string bytes = fileBytes(path);
    bytes[bytes.size() - 1] ^= 0x01;
    writeBytes(path, bytes);
    Checkpoint c(path);
    EXPECT_EQ(c.entries().size(), 0u);
    EXPECT_GT(c.loadInfo().droppedBytes, 0u);
    std::remove(path.c_str());
}

TEST(Checkpoint, ForeignHeaderRebuildsEmpty)
{
    std::string path = tempPath("foreign");
    writeBytes(path, "not a checkpoint journal");
    Checkpoint c(path);
    EXPECT_TRUE(c.loadInfo().rebuilt);
    EXPECT_TRUE(c.entries().empty());
    c.append(0, "fresh");
    Checkpoint again(path);
    EXPECT_FALSE(again.loadInfo().rebuilt);
    EXPECT_EQ(again.entries().at(0), "fresh");
    std::remove(path.c_str());
}

TEST(Checkpoint, ResetDropsEveryEntry)
{
    std::string path = tempPath("reset");
    std::remove(path.c_str());
    Checkpoint c(path);
    c.append(0, "a");
    c.append(1, "b");
    c.reset();
    EXPECT_TRUE(c.entries().empty());
    c.append(2, "c");
    Checkpoint again(path);
    EXPECT_EQ(again.entries().size(), 1u);
    EXPECT_EQ(again.entries().at(2), "c");
    std::remove(path.c_str());
}

TEST(Checkpoint, InjectedTornAppendIsDroppedOnReopen)
{
    PlanGuard guard;
    std::string path = tempPath("injected_torn");
    std::remove(path.c_str());
    Checkpoint c(path);
    c.append(0, "durable");

    // Crash mid-append: half the entry reaches the disk, the append
    // throws, and the shard must NOT be remembered as done.
    robust::setFaultPlan(
        robust::parseFaultPlan("ckpt.append:1:fail"));
    EXPECT_THROW(c.append(1, "torn"), std::runtime_error);
    robust::clearFaultPlan();
    EXPECT_EQ(c.entries().count(1), 0u);

    // The torn tail is verified away on the next open, and the
    // journal still accepts appends afterwards.
    Checkpoint again(path);
    EXPECT_EQ(again.entries().size(), 1u);
    EXPECT_GT(again.loadInfo().droppedBytes, 0u);
    again.append(1, "retried");
    Checkpoint third(path);
    EXPECT_EQ(third.entries().at(1), "retried");
    EXPECT_EQ(third.loadInfo().droppedBytes, 0u);
    std::remove(path.c_str());
}

TEST(Checkpoint, InjectedFsyncFaultIsNotAcknowledged)
{
    PlanGuard guard;
    std::string path = tempPath("fsync");
    std::remove(path.c_str());
    Checkpoint c(path);
    robust::setFaultPlan(robust::parseFaultPlan("ckpt.fsync:1"));
    EXPECT_THROW(c.append(0, "unsynced"), robust::InjectedFault);
    robust::clearFaultPlan();
    // Not durable => not remembered, even though the bytes were
    // written: the contract is fsync-before-acknowledge.
    EXPECT_EQ(c.entries().count(0), 0u);
    std::remove(path.c_str());
}

TEST(Checkpoint, TransientReadFaultIsRetriedAndCounted)
{
    PlanGuard guard;
    std::string path = tempPath("readretry");
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(0, "payload");
    }
    robust::setFaultPlan(robust::parseFaultPlan("ckpt.open:1:fail"));
    Checkpoint c(path);
    robust::clearFaultPlan();
    EXPECT_GE(c.loadInfo().retries, 1u);
    EXPECT_EQ(c.entries().at(0), "payload");
    std::remove(path.c_str());
}

TEST(Checkpoint, ParentFormatJournalLoadsAndIsWrittenByteIdentically)
{
    // A "TQANCKv1" journal spelled out byte by byte: header (magic,
    // u32 version 1, u32 reserved 0), then per entry u64 shard,
    // u32 payLen, u64 fnv1a64(shard LE bytes || payload), payload.
    auto le = [](std::uint64_t v, int n) {
        std::string s;
        for (int i = 0; i < n; ++i)
            s += static_cast<char>((v >> (8 * i)) & 0xff);
        return s;
    };
    auto entry = [&](std::uint64_t shard, const std::string &pay) {
        std::string id = le(shard, 8);
        return id + le(pay.size(), 4) +
               le(core::fnv1a64(pay.data(), pay.size(),
                                core::fnv1a64(id)),
                  8) +
               pay;
    };
    std::string bytes = std::string("TQANCKv1", 8) + le(1, 4) +
                        le(0, 4) + entry(Checkpoint::kMetaShard, "tag") +
                        entry(0, "shard-zero") + entry(5, "") +
                        entry(0, "shard-zero-again");
    std::string path = tempPath("parent_format");
    writeBytes(path, bytes);
    {
        Checkpoint c(path);
        EXPECT_FALSE(c.loadInfo().rebuilt);
        EXPECT_EQ(c.loadInfo().loadedEntries, 4u);
        EXPECT_EQ(c.loadInfo().droppedBytes, 0u);
        ASSERT_EQ(c.entries().size(), 3u);
        EXPECT_EQ(c.entries().at(Checkpoint::kMetaShard), "tag");
        EXPECT_EQ(c.entries().at(0), "shard-zero-again");
        EXPECT_EQ(c.entries().at(5), "");
    }
    EXPECT_EQ(fileBytes(path), bytes);  // a clean open writes nothing

    // And a fresh journal writes exactly those bytes.
    std::remove(path.c_str());
    {
        Checkpoint c(path);
        c.append(Checkpoint::kMetaShard, "tag");
        c.append(0, "shard-zero");
        c.append(5, "");
        c.append(0, "shard-zero-again");
    }
    EXPECT_EQ(fileBytes(path), bytes);
    std::remove(path.c_str());
}
