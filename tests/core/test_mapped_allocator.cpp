/**
 * @file
 * MappedAllocator: blocks from kMapFrom bytes on are their own page
 * mappings, smaller ones come from operator new; vectors on it behave
 * like any other across growth, copies and both sides of the line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include <unistd.h>

#include "core/mapped_allocator.h"

using namespace tqan;

TEST(MappedAllocator, VectorsWorkOnBothSidesOfTheMappingLine)
{
    using Vec = std::vector<double, core::MappedAllocator<double>>;
    const std::size_t line = core::kMapFrom / sizeof(double);
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));

    Vec small(line / 4, 1.5);
    Vec big(line, 2.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % page, 0u);
    for (double x : small)
        ASSERT_EQ(x, 1.5);
    for (double x : big)
        ASSERT_EQ(x, 2.5);

    // Growth moves a small block into a mapping and a mapped one into
    // a larger mapping; the contents come along.
    small.resize(2 * line, 3.5);
    big.resize(3 * line, 4.5);
    EXPECT_EQ(small[line / 4 - 1], 1.5);
    EXPECT_EQ(small[2 * line - 1], 3.5);
    EXPECT_EQ(big[line - 1], 2.5);
    EXPECT_EQ(big[3 * line - 1], 4.5);

    Vec copy = big;
    EXPECT_EQ(copy, big);
    copy.assign(8, 0.0);
    copy.shrink_to_fit();
    EXPECT_EQ(copy.size(), 8u);
}
