#include "structs/structure_expr.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "hom/symbolic.h"
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

TEST(StructureExprTest, BaseLeaf) {
  auto schema = GraphSchema();
  StructureExpr e = StructureExpr::Base(Edge(schema));
  EXPECT_EQ(e.DomainSize(), BigInt(2));
  EXPECT_EQ(e.NumFacts(), BigInt(1));
  std::optional<Structure> m = e.Materialize();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, Edge(schema));
}

TEST(StructureExprTest, SumAndScalarSizes) {
  auto schema = GraphSchema();
  StructureExpr edge = StructureExpr::Base(Edge(schema));
  StructureExpr five = StructureExpr::Scalar(BigInt(5), edge);
  EXPECT_EQ(five.DomainSize(), BigInt(10));
  EXPECT_EQ(five.NumFacts(), BigInt(5));
  StructureExpr sum = StructureExpr::Sum({edge, five}, schema);
  EXPECT_EQ(sum.DomainSize(), BigInt(12));
  EXPECT_EQ(sum.NumFacts(), BigInt(6));
}

TEST(StructureExprTest, PowerAndProductSizes) {
  auto schema = GraphSchema();
  StructureExpr edge = StructureExpr::Base(Edge(schema));
  StructureExpr cube = StructureExpr::Power(edge, 3);
  EXPECT_EQ(cube.DomainSize(), BigInt(8));
  EXPECT_EQ(cube.NumFacts(), BigInt(1));  // Facts multiply per relation.
  StructureExpr empty_product = StructureExpr::Product({}, schema);
  EXPECT_EQ(empty_product.DomainSize(), BigInt(1));  // All-loops singleton.
  EXPECT_EQ(empty_product.NumFacts(), BigInt(1));
}

TEST(StructureExprTest, HugeTermsDontMaterialize) {
  auto schema = GraphSchema();
  StructureExpr edge = StructureExpr::Base(Edge(schema));
  StructureExpr huge = StructureExpr::Power(edge, 200);
  EXPECT_EQ(huge.DomainSize(), BigInt::Pow(BigInt(2), 200));
  EXPECT_FALSE(huge.Materialize().has_value());
  // Symbolic counting still works: hom(edge, edge^200) = 1^200 = 1.
  EXPECT_EQ(CountHomsSymbolic(Edge(schema), huge), BigInt(1));
}

TEST(StructureExprTest, ScalarRejectsNegative) {
  auto schema = GraphSchema();
  EXPECT_THROW(
      StructureExpr::Scalar(BigInt(-1), StructureExpr::Base(Edge(schema))),
      std::invalid_argument);
}

TEST(StructureExprTest, SchemaMismatchThrows) {
  auto schema_a = GraphSchema();
  auto schema_b = std::make_shared<Schema>();
  schema_b->AddRelation("F", 2);
  EXPECT_THROW(StructureExpr::Sum({StructureExpr::Base(Edge(schema_a))},
                                  schema_b),
               std::invalid_argument);
}

TEST(SymbolicHomTest, RejectsDisconnectedSource) {
  auto schema = GraphSchema();
  Structure two_edges(schema);
  two_edges.AddFact(0, {0, 1});
  two_edges.AddFact(0, {2, 3});
  StructureExpr target = StructureExpr::Base(Edge(schema));
  EXPECT_THROW(CountHomsSymbolic(two_edges, target), std::invalid_argument);
  // The Any variant decomposes into components first.
  EXPECT_EQ(CountHomsSymbolicAny(two_edges, target), BigInt(1));
}

TEST(SymbolicHomTest, RejectsEmptyDomainSource) {
  auto schema = std::make_shared<Schema>();
  RelationId h = schema->AddRelation("H", 0);
  Structure nullary(schema);
  nullary.AddFact(h, {});
  StructureExpr target = StructureExpr::Base(Structure(schema));
  EXPECT_THROW(CountHomsSymbolic(nullary, target), std::invalid_argument);
}

// Property: symbolic evaluation agrees with materialize-then-count on
// every expression shape, for random base structures.
class SymbolicVsMaterializedTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicVsMaterializedTest, AllShapesAgree) {
  Rng rng(GetParam());
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  for (int iter = 0; iter < 10; ++iter) {
    Structure from = RandomConnectedStructure(schema, 1 + rng.Below(3), &rng);
    Structure base_a = RandomStructure(schema, 1 + rng.Below(3), &rng);
    Structure base_b = RandomStructure(schema, 1 + rng.Below(3), &rng);
    StructureExpr ea = StructureExpr::Base(base_a);
    StructureExpr eb = StructureExpr::Base(base_b);
    std::vector<StructureExpr> shapes = {
        StructureExpr::Sum({ea, eb}, schema),
        StructureExpr::Product({ea, eb}, schema),
        StructureExpr::Scalar(BigInt(3), ea),
        StructureExpr::Power(ea, 2),
        StructureExpr::Sum(
            {StructureExpr::Scalar(BigInt(2), ea),
             StructureExpr::Product({eb, StructureExpr::Power(ea, 1)}, schema)},
            schema),
        StructureExpr::Power(StructureExpr::Sum({ea, eb}, schema), 2),
        StructureExpr::Product({}, schema),
        StructureExpr::Sum({}, schema),
    };
    for (const StructureExpr& expr : shapes) {
      std::optional<Structure> materialized = expr.Materialize(100000);
      ASSERT_TRUE(materialized.has_value()) << expr.ToString();
      EXPECT_EQ(CountHomsSymbolic(from, expr), CountHoms(from, *materialized))
          << "from=" << from.ToString() << " expr=" << expr.ToString();
      EXPECT_EQ(materialized->DomainSize(),
                static_cast<std::size_t>(expr.DomainSize().ToInt64()));
      EXPECT_EQ(materialized->NumFacts(),
                static_cast<std::size_t>(expr.NumFacts().ToInt64()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicVsMaterializedTest,
                         ::testing::Values(301, 302, 303, 304, 305));

// The good-basis shape of Lemma 40: s(2) = Σ_j T^j·b_j, shared by every
// s_j = s(2)^j × q, and d, d′ = Σ_j c_j·s_j sharing every s_j.
struct SharedDag {
  std::vector<StructureExpr> leaves;  // b_1, ..., b_m and q.
  StructureExpr d;
  StructureExpr d_prime;
};

SharedDag BuildSharedDag(const std::shared_ptr<Schema>& schema,
                         std::size_t k, std::size_t m, std::int64_t radix,
                         std::size_t base_size, Rng* rng) {
  SharedDag dag;
  std::vector<StructureExpr> radix_terms;
  for (std::size_t j = 0; j < m; ++j) {
    dag.leaves.push_back(StructureExpr::Base(
        RandomStructure(schema, 1 + rng->Below(base_size), rng)));
    radix_terms.push_back(StructureExpr::Scalar(
        BigInt::Pow(BigInt(radix), j + 1), dag.leaves.back()));
  }
  const StructureExpr s2 = StructureExpr::Sum(std::move(radix_terms), schema);
  dag.leaves.push_back(StructureExpr::Base(
      RandomConnectedStructure(schema, 1 + rng->Below(base_size), rng)));
  const StructureExpr q = dag.leaves.back();
  std::vector<StructureExpr> d_terms, d_prime_terms;
  for (std::size_t j = 0; j < k; ++j) {
    const StructureExpr s_j = StructureExpr::Product(
        {StructureExpr::Power(s2, static_cast<std::uint64_t>(j)), q}, schema);
    d_terms.push_back(StructureExpr::Scalar(BigInt(1), s_j));
    d_prime_terms.push_back(
        StructureExpr::Scalar(BigInt(static_cast<std::int64_t>(j % 2)), s_j));
  }
  dag.d = StructureExpr::Sum(std::move(d_terms), schema);
  dag.d_prime = StructureExpr::Sum(std::move(d_prime_terms), schema);
  return dag;
}

// Sources with repeated and shared component classes: two copies of one
// connected piece, a relabelled third, and a second piece.
Structure SourceWithSharedClasses(const std::shared_ptr<Schema>& schema,
                                  Rng* rng) {
  const Structure a = RandomConnectedStructure(schema, 1 + rng->Below(3), rng);
  const Structure b = RandomConnectedStructure(schema, 1 + rng->Below(3), rng);
  std::vector<Element> reversed(a.DomainSize());
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = static_cast<Element>(reversed.size() - 1 - i);
  }
  return DisjointUnion(
      DisjointUnion(DisjointUnion(a, a), a.MapDomain(reversed, a.DomainSize())),
      b);
}

TEST(SymbolicMemoTest, SharedSubtermsMatchTreeWalkAndMaterialization) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  Rng rng(4242);
  for (int iter = 0; iter < 8; ++iter) {
    // k = 2, T = 2 and one-or-two-element bases keep d small enough to
    // materialize.
    const SharedDag dag = BuildSharedDag(schema, 2, 2, 2, 2, &rng);
    const std::optional<Structure> d = dag.d.Materialize();
    const std::optional<Structure> d_prime = dag.d_prime.Materialize();
    ASSERT_TRUE(d.has_value() && d_prime.has_value()) << dag.d.ToString();
    HomCache cache;
    SymbolicMemo memo;
    for (int source = 0; source < 3; ++source) {
      const Structure from = SourceWithSharedClasses(schema, &rng);
      for (const auto& [expr, materialized] :
           {std::make_pair(&dag.d, &*d), std::make_pair(&dag.d_prime, &*d_prime)}) {
        const BigInt memoized = CountHomsSymbolicAny(from, *expr, &cache, &memo);
        EXPECT_EQ(memoized, CountHomsSymbolicAny(from, *expr))
            << "from=" << from.ToString() << " expr=" << expr->ToString();
        EXPECT_EQ(memoized, CountHoms(from, *materialized))
            << "from=" << from.ToString() << " expr=" << expr->ToString();
      }
    }
  }
}

TEST(SymbolicMemoTest, LargeSharedDagMatchesTreeWalkAndCountsEachLeafOnce) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  Rng rng(777);
  constexpr std::size_t kK = 6;
  constexpr std::size_t kLeaves = 4;
  for (int iter = 0; iter < 6; ++iter) {
    const SharedDag dag = BuildSharedDag(schema, kK, kLeaves, 1000, 3, &rng);
    ASSERT_FALSE(dag.d.Materialize().has_value());
    const Structure from =
        RandomConnectedStructure(schema, 1 + rng.Below(3), &rng);

    // Tree walk through the cache: every visit of a leaf is a lookup.
    HomCache tree_cache;
    const BigInt tree_d = CountHomsSymbolicAny(from, dag.d, &tree_cache);
    const BigInt tree_d_prime =
        CountHomsSymbolicAny(from, dag.d_prime, &tree_cache);
    EXPECT_EQ(tree_d, CountHomsSymbolicAny(from, dag.d));
    EXPECT_EQ(tree_d_prime, CountHomsSymbolicAny(from, dag.d_prime));

    // One memo across d and d′: each leaf is counted once for the source.
    HomCache cache;
    SymbolicMemo memo;
    EXPECT_EQ(CountHomsSymbolicAny(from, dag.d, &cache, &memo), tree_d);
    EXPECT_EQ(CountHomsSymbolicAny(from, dag.d_prime, &cache, &memo),
              tree_d_prime);
    const HomCache::Stats memo_stats = cache.stats();
    EXPECT_EQ(memo_stats.hits + memo_stats.misses, dag.leaves.size());
    const HomCache::Stats tree_stats = tree_cache.stats();
    // The tree walk re-visits s(2)'s leaves under every s_j of d and d′.
    EXPECT_GE(tree_stats.hits + tree_stats.misses, 2 * kK * kLeaves);
    // The memo's hits are served without touching the cache again.
    EXPECT_EQ(CountHomsSymbolicAny(from, dag.d, &cache, &memo), tree_d);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, dag.leaves.size());
  }
}

}  // namespace
}  // namespace bagdet
