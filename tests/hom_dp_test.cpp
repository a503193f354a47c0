// Focused tests for the variable-elimination counting engine: higher
// arities, projection correctness on branchy/cyclic sources, closed-form
// count cross-checks, and agreement with the enumeration baseline.

#include <gtest/gtest.h>

#include "hom/hom.h"
#include "reference/oracles.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(HomDpTest, TernaryRelationJoins) {
  auto schema = std::make_shared<Schema>();
  RelationId t = schema->AddRelation("T", 3);
  Structure from(schema);
  from.AddFact(t, {0, 1, 2});
  from.AddFact(t, {2, 1, 3});  // Shares two elements with the first atom.
  Structure to(schema);
  to.AddFact(t, {0, 1, 2});
  to.AddFact(t, {2, 1, 0});
  to.AddFact(t, {2, 1, 2});
  EXPECT_EQ(CountHoms(from, to), reference::CountHomsNaive(from, to));
  // The source has 4 elements, the target 3, so nothing is injective.
  EXPECT_EQ(reference::CountInjectiveHoms(from, to), BigInt(0));
}

TEST(HomDpTest, TernaryInjectiveImpossible) {
  auto schema = std::make_shared<Schema>();
  RelationId t = schema->AddRelation("T", 3);
  Structure from(schema);
  from.AddFact(t, {0, 1, 2});
  from.AddFact(t, {2, 1, 3});
  Structure to(schema);
  to.AddFact(t, {0, 1, 2});
  to.AddFact(t, {2, 1, 0});
  EXPECT_EQ(reference::CountInjectiveHoms(from, to), BigInt(0));
}

TEST(HomDpTest, RepeatedVariableInsideAtom) {
  auto schema = std::make_shared<Schema>();
  RelationId t = schema->AddRelation("T", 3);
  Structure from(schema);
  from.AddFact(t, {0, 0, 1});  // T(x,x,y).
  Structure to(schema);
  to.AddFact(t, {0, 0, 1});
  to.AddFact(t, {0, 1, 1});
  to.AddFact(t, {2, 2, 2});
  // Matching facts: (0,0,1) and (2,2,2).
  EXPECT_EQ(CountHoms(from, to), BigInt(2));
  EXPECT_EQ(reference::CountHomsNaive(from, to), BigInt(2));
}

TEST(HomDpTest, ClosedWalkFormulaOnSymmetricClique) {
  // hom(directed C_k, symmetric K_n) = tr(A^k) = (n-1)^k + (n-1)(-1)^k.
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  for (Element n : {3, 4, 5}) {
    Structure clique(schema, n);
    for (Element i = 0; i < n; ++i) {
      for (Element j = 0; j < n; ++j) {
        if (i != j) clique.AddFact(e, {i, j});
      }
    }
    for (Element k : {2, 3, 5, 8, 13}) {
      Structure cycle(schema);
      for (Element i = 0; i < k; ++i) {
        cycle.AddFact(e, {i, static_cast<Element>((i + 1) % k)});
      }
      std::int64_t n1 = n - 1;
      BigInt expected = BigInt::Pow(BigInt(n1), k) +
                        BigInt(n1) * (k % 2 == 0 ? BigInt(1) : BigInt(-1));
      EXPECT_EQ(CountHoms(cycle, clique), expected)
          << "C_" << int(k) << " -> K_" << int(n);
    }
  }
}

TEST(HomDpTest, BranchyTreeProjection) {
  // A depth-2 complete binary tree (edges away from the root) into K_n:
  // root has n choices, each of the 6 remaining nodes n-1: n(n-1)^6.
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  Structure tree(schema);
  // Nodes 0; 1,2; 3,4,5,6.
  tree.AddFact(e, {0, 1});
  tree.AddFact(e, {0, 2});
  tree.AddFact(e, {1, 3});
  tree.AddFact(e, {1, 4});
  tree.AddFact(e, {2, 5});
  tree.AddFact(e, {2, 6});
  Structure k4(schema, 4);
  for (Element i = 0; i < 4; ++i) {
    for (Element j = 0; j < 4; ++j) {
      if (i != j) k4.AddFact(e, {i, j});
    }
  }
  EXPECT_EQ(CountHoms(tree, k4), BigInt(4) * BigInt::Pow(BigInt(3), 6));
}

TEST(HomDpTest, EnumerationAndDpAgreeWhenCountsAreSmall) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("T", 3);
  Rng rng(909);
  for (int iter = 0; iter < 30; ++iter) {
    Structure from = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    Structure to = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    BigInt dp = CountHoms(from, to);
    BigInt enumerated = reference::CountHomsByEnumeration(from, to);
    BigInt naive = reference::CountHomsNaive(from, to);
    EXPECT_EQ(dp, enumerated) << from.ToString() << " -> " << to.ToString();
    EXPECT_EQ(dp, naive) << from.ToString() << " -> " << to.ToString();
  }
}

TEST(HomDpTest, AstronomicalCountStaysFast) {
  // hom(path_100, K_20) = 20 * 19^100 — ~131 decimal digits; enumeration
  // would outlive the universe, variable elimination is instant.
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  Structure path(schema);
  for (Element i = 0; i < 100; ++i) {
    path.AddFact(e, {i, static_cast<Element>(i + 1)});
  }
  Structure k20(schema, 20);
  for (Element i = 0; i < 20; ++i) {
    for (Element j = 0; j < 20; ++j) {
      if (i != j) k20.AddFact(e, {i, j});
    }
  }
  BigInt expected = BigInt(20) * BigInt::Pow(BigInt(19), 100);
  EXPECT_EQ(CountHoms(path, k20), expected);
  EXPECT_EQ(expected.ToString().size(), 130u);
}

TEST(HomDpTest, EmptyTargetRelationShortCircuits) {
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  RelationId f = schema->AddRelation("F", 2);
  Structure from(schema);
  from.AddFact(e, {0, 1});
  from.AddFact(f, {1, 2});
  Structure to(schema);
  to.AddFact(e, {0, 0});  // No F facts at all.
  EXPECT_EQ(CountHoms(from, to), BigInt(0));
}

TEST(HomDpTest, CrossComponentMixup) {
  // Components with shared relation symbols must not leak bindings.
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  Structure from(schema);
  from.AddFact(e, {0, 1});  // Component 1: an edge.
  from.AddFact(e, {2, 2});  // Component 2: a loop.
  Structure to(schema);
  to.AddFact(e, {0, 1});
  to.AddFact(e, {1, 1});
  // Edge: (0,1), (1,1) -> 2 homs; loop: only element 1 -> 1 hom.
  EXPECT_EQ(CountHoms(from, to), BigInt(2));
}

}  // namespace
}  // namespace bagdet
