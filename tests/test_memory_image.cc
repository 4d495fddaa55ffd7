/**
 * @file
 * Tests for the sparse paged memory image.
 */

#include <gtest/gtest.h>

#include "isa/memory_image.hh"

namespace mcd {
namespace {

TEST(MemoryImage, UnwrittenReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.readWord(0x1000), 0u);
    EXPECT_EQ(m.readWord(0xdeadbeef0000ULL & ~7ULL), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(MemoryImage, WriteReadRoundtrip)
{
    MemoryImage m;
    m.writeWord(0x2000, 0x1122334455667788ULL);
    EXPECT_EQ(m.readWord(0x2000), 0x1122334455667788ULL);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(MemoryImage, AdjacentWordsIndependent)
{
    MemoryImage m;
    m.writeWord(0x100, 1);
    m.writeWord(0x108, 2);
    m.writeWord(0x0f8, 3);
    EXPECT_EQ(m.readWord(0x100), 1u);
    EXPECT_EQ(m.readWord(0x108), 2u);
    EXPECT_EQ(m.readWord(0x0f8), 3u);
}

TEST(MemoryImage, CrossPageWrites)
{
    MemoryImage m;
    m.writeWord(0x0ff8, 0xa);   // last word of page 0
    m.writeWord(0x1000, 0xb);   // first word of page 1
    EXPECT_EQ(m.readWord(0x0ff8), 0xaULL);
    EXPECT_EQ(m.readWord(0x1000), 0xbULL);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(MemoryImage, DoubleRoundtrip)
{
    MemoryImage m;
    m.writeDouble(0x40, 3.14159);
    EXPECT_DOUBLE_EQ(m.readDouble(0x40), 3.14159);
    m.writeDouble(0x48, -0.0);
    EXPECT_DOUBLE_EQ(m.readDouble(0x48), -0.0);
}

TEST(MemoryImage, OverlayCopiesNonzero)
{
    MemoryImage a, b;
    b.writeWord(0x100, 7);
    b.writeWord(0x2000, 9);
    a.writeWord(0x108, 5);
    a.overlay(b);
    EXPECT_EQ(a.readWord(0x100), 7u);
    EXPECT_EQ(a.readWord(0x108), 5u);
    EXPECT_EQ(a.readWord(0x2000), 9u);
}

TEST(MemoryImage, OverlayPreservesDestinationWhenSourceZero)
{
    MemoryImage a, b;
    a.writeWord(0x100, 5);
    b.writeWord(0x108, 1);  // same page, different word
    a.overlay(b);
    EXPECT_EQ(a.readWord(0x100), 5u);
    EXPECT_EQ(a.readWord(0x108), 1u);
}

} // namespace
} // namespace mcd
