#include "hom/hom.h"

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

Structure Edge(const std::shared_ptr<Schema>& schema) {
  Structure s(schema);
  s.AddFact(0, {0, 1});
  return s;
}

Structure Loop(const std::shared_ptr<Schema>& schema) {
  Structure s(schema);
  s.AddFact(0, {0, 0});
  return s;
}

Structure Cycle(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
  }
  return s;
}

Structure Clique(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema, n);
  for (Element i = 0; i < n; ++i) {
    for (Element j = 0; j < n; ++j) {
      if (i != j) s.AddFact(0, {i, j});
    }
  }
  return s;
}

TEST(HomTest, EmptySourceHasExactlyOneHom) {
  auto schema = GraphSchema();
  Structure empty(schema);
  EXPECT_EQ(CountHoms(empty, Edge(schema)), BigInt(1));
  EXPECT_EQ(CountHoms(empty, empty), BigInt(1));
  EXPECT_TRUE(ExistsHom(empty, empty));
}

TEST(HomTest, EdgeIntoEdgeAndLoop) {
  auto schema = GraphSchema();
  EXPECT_EQ(CountHoms(Edge(schema), Edge(schema)), BigInt(1));
  EXPECT_EQ(CountHoms(Edge(schema), Loop(schema)), BigInt(1));
  EXPECT_EQ(CountHoms(Loop(schema), Edge(schema)), BigInt(0));
  EXPECT_FALSE(ExistsHom(Loop(schema), Edge(schema)));
  // A 2-edge path's middle vertex needs an in- and an out-edge; a single
  // edge has no such vertex.
  Structure path2(schema);
  path2.AddFact(0, {0, 1});
  path2.AddFact(0, {1, 2});
  EXPECT_EQ(CountHoms(path2, Edge(schema)), BigInt(0));
  EXPECT_FALSE(ExistsHom(path2, Edge(schema)));
}

TEST(HomTest, PathsIntoCliqueCountWalks) {
  // hom(path of k edges, K_n) = number of walks = n·(n-1)^k.
  auto schema = GraphSchema();
  Structure k3 = Clique(schema, 3);
  Structure path2(schema);
  path2.AddFact(0, {0, 1});
  path2.AddFact(0, {1, 2});
  EXPECT_EQ(CountHoms(path2, k3), BigInt(3 * 2 * 2));
  Structure path3(schema);
  path3.AddFact(0, {0, 1});
  path3.AddFact(0, {1, 2});
  path3.AddFact(0, {2, 3});
  EXPECT_EQ(CountHoms(path3, k3), BigInt(3 * 2 * 2 * 2));
}

TEST(HomTest, OddCycleIntoBipartiteIsZero) {
  auto schema = GraphSchema();
  // C_4 with both orientations ~ bipartite; directed C_3 has no hom into
  // a directed 2-cycle.
  Structure c2 = Cycle(schema, 2);
  EXPECT_EQ(CountHoms(Cycle(schema, 3), c2), BigInt(0));
  EXPECT_EQ(CountHoms(Cycle(schema, 4), c2), BigInt(2));
}

TEST(HomTest, IsolatedElementsMultiplyByDomain) {
  auto schema = GraphSchema();
  Structure from(schema, 2);  // Two isolated elements.
  Structure to(schema, 5);
  EXPECT_EQ(CountHoms(from, to), BigInt(25));
  Structure to_empty(schema, 0);
  EXPECT_EQ(CountHoms(from, to_empty), BigInt(0));
}

TEST(HomTest, NullaryFactsRequirePresence) {
  auto schema = std::make_shared<Schema>();
  RelationId h = schema->AddRelation("H", 0);
  RelationId e = schema->AddRelation("E", 2);
  Structure from(schema);
  from.AddFact(h, {});
  from.AddFact(e, {0, 1});
  Structure with_h(schema);
  with_h.AddFact(h, {});
  with_h.AddFact(e, {0, 1});
  Structure without_h(schema);
  without_h.AddFact(e, {0, 1});
  EXPECT_EQ(CountHoms(from, with_h), BigInt(1));
  EXPECT_EQ(CountHoms(from, without_h), BigInt(0));
  EXPECT_TRUE(ExistsHom(from, with_h));
  EXPECT_FALSE(ExistsHom(from, without_h));
}

TEST(HomTest, SelfMapCountsOfCycles) {
  auto schema = GraphSchema();
  // Directed n-cycle into itself: n rotations.
  for (Element n : {2, 3, 4, 5}) {
    EXPECT_EQ(CountHoms(Cycle(schema, n), Cycle(schema, n)),
              BigInt(static_cast<std::int64_t>(n)));
  }
  // C_4 into C_2: map around twice or collapse; 2 choices of phase x 1.
  EXPECT_EQ(CountHoms(Cycle(schema, 4), Cycle(schema, 2)), BigInt(2));
}

TEST(HomTest, InjectiveCountsAutomorphisms) {
  auto schema = GraphSchema();
  // The directed n-cycle has exactly n automorphisms.
  EXPECT_EQ(reference::CountInjectiveHoms(Cycle(schema, 4), Cycle(schema, 4)),
            BigInt(4));
  // Injective homs of one edge into K_3: ordered pairs of distinct = 6.
  EXPECT_EQ(reference::CountInjectiveHoms(Edge(schema), Clique(schema, 3)),
            BigInt(6));
  // Too large a source.
  EXPECT_EQ(reference::CountInjectiveHoms(Clique(schema, 3), Clique(schema, 2)),
            BigInt(0));
}

TEST(HomTest, InjectiveCountsAreFallingFactorials) {
  // A k-element path, or k isolated elements, maps injectively into K_n
  // in n!/(n-k)! ways: any k distinct vertices in order (K_n has every
  // non-loop edge). None when k > n.
  auto schema = GraphSchema();
  for (Element n = 1; n <= 6; ++n) {
    const Structure clique = Clique(schema, n);
    for (Element k = 1; k <= n + 1; ++k) {
      Structure path(schema, k);
      for (Element i = 0; i + 1 < k; ++i) {
        path.AddFact(0, {i, static_cast<Element>(i + 1)});
      }
      std::int64_t expected = k <= n ? 1 : 0;
      for (Element i = 0; i < k && k <= n; ++i) expected *= n - i;
      EXPECT_EQ(reference::CountInjectiveHoms(path, clique), BigInt(expected))
          << "path k=" << k << " n=" << n;
      EXPECT_EQ(reference::CountInjectiveHoms(Structure(schema, k), clique),
                BigInt(expected))
          << "isolated k=" << k << " n=" << n;
    }
  }
}

TEST(HomTest, InjectiveCouplesComponents) {
  auto schema = GraphSchema();
  // Two disjoint edges injectively into one edge: impossible (needs 4
  // distinct elements); non-injectively there is 1 hom.
  Structure two_edges(schema);
  two_edges.AddFact(0, {0, 1});
  two_edges.AddFact(0, {2, 3});
  EXPECT_EQ(CountHoms(two_edges, Edge(schema)), BigInt(1));
  EXPECT_EQ(reference::CountInjectiveHoms(two_edges, Edge(schema)), BigInt(0));
}

TEST(HomTest, EnumerateHomsVisitsEach) {
  auto schema = GraphSchema();
  Structure from = Edge(schema);
  Structure to = Clique(schema, 3);
  int visits = 0;
  EnumerateHoms(from, to, [&](const std::vector<Element>& h) {
    EXPECT_NE(h[0], h[1]);  // K_3 has no loops.
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 6);
}

TEST(HomTest, EnumerateHomsEarlyStop) {
  auto schema = GraphSchema();
  int visits = 0;
  bool completed =
      EnumerateHoms(Edge(schema), Clique(schema, 3),
                    [&](const std::vector<Element>&) {
                      ++visits;
                      return false;
                    });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visits, 1);
}

// ---------------------------------------------------------------------------
// Lemma 4 identities on random structures, plus naive cross-validation.

struct Lemma4Case {
  std::uint64_t seed;
  std::size_t from_size;
  std::size_t to_size;
};

class Lemma4Test : public ::testing::TestWithParam<Lemma4Case> {
 protected:
  std::shared_ptr<Schema> schema_ = [] {
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("R", 2);
    schema->AddRelation("P", 1);
    return schema;
  }();
};

TEST_P(Lemma4Test, SumLawForConnectedSources) {
  Rng rng(GetParam().seed);
  Structure a =
      RandomConnectedStructure(schema_, GetParam().from_size, &rng);
  Structure b = RandomStructure(schema_, GetParam().to_size, &rng);
  Structure c = RandomStructure(schema_, GetParam().to_size, &rng);
  // Lemma 4(1).
  EXPECT_EQ(CountHoms(a, DisjointUnion(b, c)),
            CountHoms(a, b) + CountHoms(a, c));
  // Lemma 4(2).
  EXPECT_EQ(CountHoms(a, ScalarMultiple(3, b)), BigInt(3) * CountHoms(a, b));
}

TEST_P(Lemma4Test, ProductLawForAllSources) {
  Rng rng(GetParam().seed * 7 + 1);
  Structure a = RandomStructure(schema_, GetParam().from_size, &rng);
  Structure b = RandomStructure(schema_, GetParam().to_size, &rng);
  Structure c = RandomStructure(schema_, GetParam().to_size, &rng);
  // Lemma 4(3) holds for arbitrary (not only connected) sources.
  EXPECT_EQ(CountHoms(a, Product(b, c)), CountHoms(a, b) * CountHoms(a, c));
  // Lemma 4(4).
  EXPECT_EQ(CountHoms(a, IteratedProduct(b, 2)),
            CountHoms(a, b) * CountHoms(a, b));
}

TEST_P(Lemma4Test, UnionLawOnSourceSide) {
  Rng rng(GetParam().seed * 13 + 5);
  Structure a = RandomStructure(schema_, GetParam().from_size, &rng);
  Structure b = RandomStructure(schema_, GetParam().from_size, &rng);
  Structure c = RandomStructure(schema_, GetParam().to_size, &rng);
  // Lemma 4(5).
  EXPECT_EQ(CountHoms(DisjointUnion(a, b), c),
            CountHoms(a, c) * CountHoms(b, c));
}

TEST_P(Lemma4Test, EngineMatchesNaiveEnumeration) {
  Rng rng(GetParam().seed * 31 + 9);
  Structure a = RandomStructure(schema_, GetParam().from_size, &rng);
  Structure b = RandomStructure(schema_, GetParam().to_size, &rng);
  EXPECT_EQ(CountHoms(a, b), reference::CountHomsNaive(a, b))
      << "from=" << a.ToString() << " to=" << b.ToString();
  EXPECT_EQ(ExistsHom(a, b), !CountHoms(a, b).IsZero());
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweeps, Lemma4Test,
    ::testing::Values(Lemma4Case{101, 2, 2}, Lemma4Case{102, 2, 3},
                      Lemma4Case{103, 3, 2}, Lemma4Case{104, 3, 3},
                      Lemma4Case{105, 4, 2}, Lemma4Case{106, 1, 4},
                      Lemma4Case{107, 4, 3}, Lemma4Case{108, 3, 4}));

TEST(HomScaleTest, LongPathIntoLargeCliqueUsesBigCounts) {
  auto schema = GraphSchema();
  // hom(path with 40 edges, K_12) = 12 * 11^40: far beyond 64 bits.
  Structure path(schema);
  for (Element i = 0; i < 40; ++i) {
    path.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  BigInt expected(12);
  for (int i = 0; i < 40; ++i) expected *= BigInt(11);
  EXPECT_EQ(CountHoms(path, Clique(schema, 12)), expected);
}

TEST(HomTest, ClosedFormsSurviveEveryEngine) {
  // hom(C4, K_n) = trace(A_{K_n}^4) = (n-1)^4 + (n-1); pin the
  // variable-elimination counter and the Matcher's enumeration to the
  // formula.
  auto schema = GraphSchema();
  const Structure cycle = Cycle(schema, 4);
  for (Element n : {Element{2}, Element{5}, Element{9}}) {
    const Structure clique = Clique(schema, n);
    const std::int64_t k = static_cast<std::int64_t>(n) - 1;
    const BigInt expected = BigInt(k * k * k * k + k);
    EXPECT_EQ(CountHoms(cycle, clique), expected) << n;
    EXPECT_EQ(reference::CountHomsByEnumeration(cycle, clique), expected) << n;
  }
}

TEST(HomTest, MatcherBucketIntersectionOnWideBuckets) {
  // Clique(20) buckets hold 19 fact ids — past the Matcher's
  // intersection threshold. The triangle's closing atom E(2, 0) has both
  // positions bound, so the runner-up-bucket bitset drives its candidate
  // scan. Every sequence of distinct vertices of a clique is a path (and
  // closes a cycle), which gives closed forms to pin the scan against.
  auto schema = GraphSchema();
  const Structure clique = Clique(schema, 20);
  Structure path(schema, 4);
  for (Element i = 0; i < 3; ++i) {
    path.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  EXPECT_EQ(reference::CountInjectiveHoms(path, clique),
            BigInt(std::int64_t{20} * 19 * 18 * 17));
  EXPECT_EQ(reference::CountInjectiveHoms(Cycle(schema, 3), clique),
            BigInt(std::int64_t{20} * 19 * 18));
  EXPECT_EQ(reference::CountHomsByEnumeration(Cycle(schema, 3), clique),
            CountHoms(Cycle(schema, 3), clique));
  EXPECT_TRUE(ExistsHom(path, clique));
}

}  // namespace
}  // namespace bagdet
