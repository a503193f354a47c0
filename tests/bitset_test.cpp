// SVOBitset (util/bitset.h): the inline/spill boundary, the intersection,
// count and scan kernels, and copy/move hygiene.

#include "util/bitset.h"

#include <gtest/gtest.h>

#include <vector>

namespace bagdet {
namespace {

TEST(SVOBitsetTest, InlineSpillBoundary) {
  // kInlineWords * 64 = 256 bits is the last inline size; 257 spills.
  SVOBitset at_boundary(256);
  SVOBitset past_boundary(257);
  EXPECT_FALSE(at_boundary.spilled());
  EXPECT_TRUE(past_boundary.spilled());
  for (std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                           std::size_t{64}, std::size_t{65}, std::size_t{255},
                           std::size_t{256}, std::size_t{257},
                           std::size_t{1000}}) {
    SVOBitset b(bits);
    EXPECT_EQ(b.size(), bits);
    EXPECT_EQ(b.Count(), 0u);
    EXPECT_TRUE(b.None());
    EXPECT_EQ(b.FindFirst(), SVOBitset::npos);
    if (bits == 0) continue;
    b.Set(bits - 1);
    EXPECT_TRUE(b.Test(bits - 1));
    EXPECT_EQ(b.Count(), 1u) << bits;
    EXPECT_EQ(b.FindFirst(), bits - 1);
  }
}

TEST(SVOBitsetTest, SetAllKeepsTailBitsClear) {
  // Sizes straddling word boundaries: SetAll must never set phantom bits
  // past size(), or Count/FindNext would report members outside the
  // target domain.
  for (std::size_t bits : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{200},
                           std::size_t{256}, std::size_t{300}}) {
    SVOBitset b(bits, /*all_set=*/true);
    EXPECT_EQ(b.Count(), bits);
    EXPECT_EQ(b.FindNext(bits), SVOBitset::npos) << bits;
    std::size_t seen = 0;
    for (std::size_t i = b.FindFirst(); i != SVOBitset::npos;
         i = b.FindNext(i + 1)) {
      EXPECT_EQ(i, seen);
      ++seen;
    }
    EXPECT_EQ(seen, bits);
  }
}

TEST(SVOBitsetTest, IntersectWithReportsSurvivors) {
  for (std::size_t bits : {std::size_t{100}, std::size_t{300}}) {
    SVOBitset evens(bits), threes(bits);
    for (std::size_t i = 0; i < bits; i += 2) evens.Set(i);
    for (std::size_t i = 0; i < bits; i += 3) threes.Set(i);
    SVOBitset both = evens;
    EXPECT_TRUE(both.IntersectWith(threes));
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(both.Test(i), i % 6 == 0) << i;
    }
    EXPECT_EQ(both.Count(), (bits + 5) / 6);
    // Disjoint sets: the fused empty check fires.
    SVOBitset odds(bits);
    for (std::size_t i = 1; i < bits; i += 2) odds.Set(i);
    SVOBitset dead = evens;
    EXPECT_FALSE(dead.IntersectWith(odds));
    EXPECT_TRUE(dead.None());
  }
}

TEST(SVOBitsetTest, FindNextScansAcrossWords) {
  SVOBitset b(320, /*all_set=*/false);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(191);
  b.Set(319);
  std::vector<std::size_t> hits;
  for (std::size_t i = b.FindFirst(); i != SVOBitset::npos;
       i = b.FindNext(i + 1)) {
    hits.push_back(i);
  }
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 63, 64, 191, 319}));
  EXPECT_EQ(b.FindNext(65), 191u);
  b.Reset(191);
  EXPECT_EQ(b.FindNext(65), 319u);
}

TEST(SVOBitsetTest, CopyAndMoveHygiene) {
  for (std::size_t bits : {std::size_t{128}, std::size_t{512}}) {
    SVOBitset original(bits);
    original.Set(7);
    original.Set(bits - 1);
    SVOBitset copy(original);
    EXPECT_EQ(copy, original);
    copy.Set(11);
    EXPECT_NE(copy, original);  // Deep copy: no shared storage.
    EXPECT_FALSE(original.Test(11));
    SVOBitset moved(std::move(copy));
    EXPECT_TRUE(moved.Test(11));
    EXPECT_TRUE(moved.Test(bits - 1));
    // Assignment across different footprints reallocates correctly.
    SVOBitset assigned(3);
    assigned = original;
    EXPECT_EQ(assigned, original);
    assigned = SVOBitset(bits);  // Move-assign over a live value.
    EXPECT_EQ(assigned.Count(), 0u);
    EXPECT_EQ(assigned.size(), bits);
  }
}

}  // namespace
}  // namespace bagdet
