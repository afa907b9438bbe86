/**
 * @file
 * Tests of robust::Journal itself: the blob cap is enforced before a
 * byte is written, and an onEntry refusal ends the load exactly like
 * a checksum failure.  The view suites (test_checkpoint.cpp,
 * tests/service/test_cache.cpp) cover torn tails, foreign headers
 * and the fault probes through the two real views.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include "robust/journal.h"

using namespace tqan;
using robust::Journal;

namespace {

constexpr char kTestMagic[] = "TQANJTv1";

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_journal_" + name + ".bin";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Open `j` at `path`, collecting every accepted record. */
std::map<std::uint64_t, std::string>
openInto(Journal &j, const std::string &path)
{
    std::map<std::uint64_t, std::string> got;
    j.open(path, [&](std::uint64_t id, std::string_view blob) {
        got[id] = std::string(blob);
        return true;
    });
    return got;
}

} // namespace

TEST(Journal, OversizedAppendThrowsWritesNothingAndLaterEntriesSurvive)
{
    // A blob one byte over the cap, backed by an untouched anonymous
    // mapping so the test costs address space, not memory.
    const std::size_t n = std::size_t(Journal::kMaxBlob) + 1;
    void *big = ::mmap(nullptr, n, PROT_READ,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                       0);
    ASSERT_NE(big, MAP_FAILED);
    std::string path = tempPath("oversized");
    std::remove(path.c_str());
    {
        Journal j(kTestMagic, "ckpt");
        openInto(j, path);
        j.append(1, "small");
        std::size_t before = fileBytes(path).size();
        EXPECT_THROW(
            j.append(2, std::string_view(static_cast<char *>(big), n)),
            std::runtime_error);
        EXPECT_EQ(fileBytes(path).size(), before);
        j.append(3, "later");
    }
    ::munmap(big, n);
    Journal j(kTestMagic, "ckpt");
    auto got = openInto(j, path);
    EXPECT_EQ(j.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(j.loadInfo().loadedEntries, 2u);
    EXPECT_EQ(got.count(2), 0u);
    EXPECT_EQ(got.at(1), "small");
    EXPECT_EQ(got.at(3), "later");
    std::remove(path.c_str());
}

TEST(Journal, RefusedEntryEndsTheLoadAndIsTruncatedAway)
{
    std::string path = tempPath("refused");
    std::remove(path.c_str());
    {
        Journal j(kTestMagic, "ckpt");
        openInto(j, path);
        j.append(1, "keep");
        j.append(2, "refuse");
        j.append(3, "after");
    }
    std::size_t full = fileBytes(path).size();
    {
        Journal j(kTestMagic, "ckpt");
        std::map<std::uint64_t, std::string> got;
        j.open(path, [&](std::uint64_t id, std::string_view blob) {
            if (id == 2)
                return false;
            got[id] = std::string(blob);
            return true;
        });
        EXPECT_EQ(got.size(), 1u);
        EXPECT_EQ(j.loadInfo().loadedEntries, 1u);
        EXPECT_GT(j.loadInfo().droppedBytes, 0u);
        EXPECT_EQ(fileBytes(path).size(),
                  full - j.loadInfo().droppedBytes);
    }
    Journal j(kTestMagic, "ckpt");
    auto got = openInto(j, path);
    EXPECT_EQ(j.loadInfo().droppedBytes, 0u);
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(got.at(1), "keep");
    std::remove(path.c_str());
}
