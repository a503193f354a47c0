#include "structs/refinement.h"

#include <gtest/gtest.h>

#include "reference/oracles.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure Cycle(const std::shared_ptr<Schema>& schema, Element n,
                Element offset = 0) {
  Structure s(schema, offset + n);
  for (Element i = 0; i < n; ++i) {
    s.AddFact(0, {static_cast<Element>(offset + i),
                  static_cast<Element>(offset + (i + 1) % n)});
  }
  return s;
}

TEST(RefinementTest, EmptyAndSingleton) {
  auto schema = GraphSchema();
  ColorRefinementResult empty = RefineColors(Structure(schema));
  EXPECT_EQ(empty.num_colors, 0u);
  ColorRefinementResult lone = RefineColors(Structure(schema, 1));
  EXPECT_EQ(lone.num_colors, 1u);
}

TEST(RefinementTest, PathGetsPositionalColors) {
  // In a directed 2-edge path 0→1→2, all three elements differ: source,
  // middle, sink.
  auto schema = GraphSchema();
  Structure path(schema);
  path.AddFact(0, {0, 1});
  path.AddFact(0, {1, 2});
  ColorRefinementResult r = RefineColors(path);
  EXPECT_EQ(r.num_colors, 3u);
}

TEST(RefinementTest, CycleIsColorRegular) {
  auto schema = GraphSchema();
  ColorRefinementResult r = RefineColors(Cycle(schema, 5));
  EXPECT_EQ(r.num_colors, 1u);  // Vertex-transitive: one stable class.
}

/// Element i of a lands on perm[i] of b = a.MapDomain(perm).
std::vector<Element> RandomPermutation(std::size_t n, Rng* rng) {
  std::vector<Element> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Below(i)]);
  }
  return perm;
}

TEST(RefinementTest, ColorsFollowIsomorphisms) {
  // Color ids are isomorphism-invariant: an element and its image under
  // a relabeling get the same color, not just the same histogram.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  Rng rng(31);
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t n = 1 + rng.Below(6);
    Structure a = RandomStructure(schema, n, &rng);
    std::vector<Element> perm = RandomPermutation(n, &rng);
    Structure b = a.MapDomain(perm, n);
    ColorRefinementResult ra = RefineColors(a);
    ColorRefinementResult rb = RefineColors(b);
    ASSERT_EQ(ra.num_colors, rb.num_colors) << a.ToString();
    for (std::size_t e = 0; e < n; ++e) {
      EXPECT_EQ(rb.color_of_element[perm[e]], ra.color_of_element[e])
          << a.ToString() << " element " << e;
    }
  }
}

TEST(RefinementTest, PartitionMatchesReference) {
  // The hashed signatures give the same stable partition as the
  // reference's exact ones: e and f share a color in one iff they do in
  // the other.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  schema->AddRelation("T", 3);
  Rng rng(2031);
  for (int iter = 0; iter < 60; ++iter) {
    std::size_t n = rng.Below(8);
    Structure s = RandomStructure(schema, n, &rng, 1, 4);
    ColorRefinementResult fast = RefineColors(s);
    reference::ColorRefinement exact = reference::RefineColors(s);
    EXPECT_EQ(fast.num_colors, exact.rounds.back().size()) << s.ToString();
    for (std::size_t e = 0; e < n; ++e) {
      for (std::size_t f = 0; f < n; ++f) {
        EXPECT_EQ(fast.color_of_element[e] == fast.color_of_element[f],
                  exact.color_of_element[e] == exact.color_of_element[f])
            << s.ToString() << " elements " << e << ", " << f;
      }
    }
  }
}

TEST(RefinementTest, DistinguishesDegreeTwins) {
  // Star with 2 leaves vs path of 2 edges: different degree structure.
  auto schema = GraphSchema();
  Structure star(schema);
  star.AddFact(0, {0, 1});
  star.AddFact(0, {0, 2});
  Structure path(schema);
  path.AddFact(0, {0, 1});
  path.AddFact(0, {1, 2});
  EXPECT_TRUE(reference::ColorRefinementDistinguishes(star, path));
}

TEST(RefinementTest, KnownBlindSpotCyclePair) {
  // The classic 1-WL blind spot: C6 vs C3 + C3 — both 1-regular (in and
  // out), same size; refinement cannot tell them apart…
  auto schema = GraphSchema();
  Structure c6 = Cycle(schema, 6);
  Structure c3c3 = Cycle(schema, 3);
  c3c3 = DisjointUnion(c3c3, Cycle(schema, 3));
  EXPECT_FALSE(reference::ColorRefinementDistinguishes(c6, c3c3));
  EXPECT_EQ(RefineColors(c6).num_colors, 1u);
  EXPECT_EQ(RefineColors(c3c3).num_colors, 1u);
  // …but the full isomorphism test (which backtracks) must.
  EXPECT_FALSE(reference::IsIsomorphic(c6, c3c3));
}

TEST(RefinementTest, SoundnessOnRandomPairs) {
  // distinguishes ⟹ non-isomorphic, on random pairs; permuted copies are
  // never distinguished.
  auto schema = GraphSchema();
  Rng rng(77);
  int distinguished = 0;
  for (int iter = 0; iter < 40; ++iter) {
    std::size_t n = 1 + rng.Below(5);
    Structure a = RandomStructure(schema, n, &rng);
    Structure b = RandomStructure(schema, n, &rng);
    if (reference::ColorRefinementDistinguishes(a, b)) {
      ++distinguished;
      EXPECT_FALSE(reference::IsIsomorphic(a, b))
          << a.ToString() << " / " << b.ToString();
    }
    EXPECT_FALSE(reference::ColorRefinementDistinguishes(
        a, a.MapDomain(RandomPermutation(n, &rng), n)))
        << a.ToString();
  }
  EXPECT_GT(distinguished, 0);
}

TEST(RefinementTest, RoundsAreBounded) {
  auto schema = GraphSchema();
  Structure path(schema);
  for (Element i = 0; i < 10; ++i) {
    path.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  ColorRefinementResult r = RefineColors(path);
  EXPECT_EQ(r.num_colors, 11u);  // A directed path is fully rigid.
}

}  // namespace
}  // namespace bagdet
