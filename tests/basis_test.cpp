// Tests for the good-basis construction (Lemma 40) and the distinguisher
// search (effective Lemma 43), including the Example 54 / Figure 2 setup.

#include "core/basis.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/counterexample.h"
#include "core/distinguisher.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "hom/symbolic.h"
#include "linalg/gauss.h"
#include "query/parser.h"
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

TEST(DistinguisherTest, IsomorphicPairHasNoDistinguisher) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  Structure b(schema);
  b.AddFact(0, {1, 0});
  DistinguisherSearch search = SearchDistinguisher(a, b);
  EXPECT_EQ(search.outcome, DistinguisherOutcome::kIsomorphic);
  EXPECT_FALSE(search.distinguisher.has_value());
}

TEST(DistinguisherTest, FindsWitnessForSimplePairs) {
  auto schema = GraphSchema();
  Structure edge(schema);
  edge.AddFact(0, {0, 1});
  Structure loop(schema);
  loop.AddFact(0, {0, 0});
  DistinguisherSearch search = SearchDistinguisher(edge, loop);
  ASSERT_EQ(search.outcome, DistinguisherOutcome::kFound);
  const Structure& h = *search.distinguisher;
  EXPECT_NE(CountHoms(edge, h), CountHoms(loop, h));
}

TEST(DistinguisherTest, HardPairSameCountsOnThemselves) {
  // Directed 6-cycle vs two directed 3-cycles... not connected; use
  // 6-cycle vs 3-cycle: hom(C6,C3)=3, hom(C3,C3)=3; need some H telling
  // them apart.
  auto schema = GraphSchema();
  auto cycle = [&](Element n) {
    Structure s(schema);
    for (Element i = 0; i < n; ++i) {
      s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
    }
    return s;
  };
  Structure c6 = cycle(6);
  Structure c3 = cycle(3);
  DistinguisherSearch search = SearchDistinguisher(c6, c3);
  ASSERT_EQ(search.outcome, DistinguisherOutcome::kFound);
  const Structure& h = *search.distinguisher;
  EXPECT_NE(CountHoms(c6, h), CountHoms(c3, h));
}

TEST(DistinguisherTest, RandomConnectedPairsAlwaysSplit) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  Rng rng(404);
  int tried = 0;
  for (int iter = 0; iter < 40 && tried < 20; ++iter) {
    Structure a = RandomConnectedStructure(schema, 1 + rng.Below(4), &rng);
    Structure b = RandomConnectedStructure(schema, 1 + rng.Below(4), &rng);
    if (reference::IsIsomorphic(a, b)) continue;
    ++tried;
    DistinguisherSearch search = SearchDistinguisher(a, b);
    ASSERT_EQ(search.outcome, DistinguisherOutcome::kFound)
        << a.ToString() << " vs " << b.ToString();
    const Structure& h = *search.distinguisher;
    EXPECT_NE(CountHoms(a, h), CountHoms(b, h));
  }
  EXPECT_GE(tried, 10);
}

/// A uniformly random relabeling of `s` (isomorphic by construction).
Structure PermutedCopy(const Structure& s, Rng* rng) {
  const std::size_t n = s.DomainSize();
  std::vector<Element> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Below(i)]);
  }
  return s.MapDomain(perm, n);
}

TEST(DistinguisherTest, PrivateCacheMatchesSharedCache) {
  // A search without a cache gets a private one for the call; it must end
  // exactly as a search through one cache shared by every pair: the same
  // outcome and the same distinguisher. Permuted copies are isomorphic.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  Rng rng(4040);
  HomCache shared;
  DistinguisherOptions with_cache;
  with_cache.hom_cache = &shared;
  int found = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Structure a = RandomConnectedStructure(schema, 1 + rng.Below(4), &rng);
    Structure b = RandomConnectedStructure(schema, 1 + rng.Below(4), &rng);
    DistinguisherSearch alone = SearchDistinguisher(a, b);
    DistinguisherSearch cached = SearchDistinguisher(a, b, with_cache);
    ASSERT_EQ(alone.outcome, cached.outcome)
        << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(alone.outcome == DistinguisherOutcome::kIsomorphic,
              reference::IsIsomorphic(a, b))
        << a.ToString() << " vs " << b.ToString();
    if (alone.outcome == DistinguisherOutcome::kFound) {
      ++found;
      ASSERT_TRUE(cached.distinguisher.has_value());
      EXPECT_EQ(*alone.distinguisher, *cached.distinguisher)
          << a.ToString() << " vs " << b.ToString();
    }
    Structure p = PermutedCopy(a, &rng);
    EXPECT_EQ(SearchDistinguisher(a, p).outcome,
              DistinguisherOutcome::kIsomorphic)
        << a.ToString();
    EXPECT_EQ(SearchDistinguisher(a, p, with_cache).outcome,
              DistinguisherOutcome::kIsomorphic)
        << a.ToString();
  }
  EXPECT_GE(found, 20);
}

TEST(DistinguisherTest, InducedSubstructureMask) {
  auto schema = GraphSchema();
  Structure s(schema);
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 2});
  Structure sub = InducedSubstructure(s, 0b110);  // Keep {1, 2}.
  EXPECT_EQ(sub.DomainSize(), 2u);
  EXPECT_EQ(sub.NumFacts(), 1u);
  EXPECT_TRUE(sub.HasFact(0, {0, 1}));  // Renamed 1↦0, 2↦1.
  EXPECT_TRUE(InducedSubstructure(s, 0).IsEmpty());
}

class GoodBasisTest : public ::testing::Test {
 protected:
  // A not-determined instance with a multi-component W: q and views over
  // loops/edges (Example 32 shape with perturbed coefficients so that q⃗
  // falls outside the span).
  InstanceAnalysis MakeAnalysis() {
    QueryParser parser;
    ConjunctiveQuery q = parser.ParseRule("q()  :- E(x,x), E(a,b)");
    std::vector<ConjunctiveQuery> views = {
        parser.ParseRule("v1() :- E(x,x), E(y,y), E(a,b), E(c,d)"),
    };
    return AnalyzeInstance(views, q);
  }
};

TEST_F(GoodBasisTest, MatrixNonsingularAndSizesMatch) {
  InstanceAnalysis analysis = MakeAnalysis();
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  const std::size_t k = analysis.basis_queries.size();
  ASSERT_EQ(k, 2u);
  EXPECT_EQ(basis.structures.size(), k);
  EXPECT_EQ(basis.evaluation.rows(), k);
  EXPECT_TRUE(IsNonsingular(basis.evaluation));
}

TEST_F(GoodBasisTest, AnalysisWithoutHomCacheIsRejected) {
  // AnalyzeInstance always sets the cache; an analysis without one is a
  // caller error.
  InstanceAnalysis analysis = MakeAnalysis();
  analysis.hom_cache = nullptr;
  EXPECT_THROW(TryBuildGoodBasis(analysis, DistinguisherOptions()),
               std::invalid_argument);
  EXPECT_THROW(CheckWitnessOnStructure(analysis, DeterminacyWitness(),
                                       analysis.query.FrozenBody()),
               std::invalid_argument);
}

TEST_F(GoodBasisTest, EvaluationMatrixMatchesSymbolicCounts) {
  InstanceAnalysis analysis = MakeAnalysis();
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  for (std::size_t i = 0; i < analysis.basis_queries.size(); ++i) {
    for (std::size_t j = 0; j < basis.structures.size(); ++j) {
      BigInt direct =
          CountHomsSymbolic(analysis.basis_queries[i], basis.structures[j]);
      EXPECT_EQ(basis.evaluation.At(i, j), Rational(direct)) << i << "," << j;
    }
  }
}

TEST_F(GoodBasisTest, EvaluationMatrixMatchesMaterializedCounts) {
  // The ground truth: materialize s_j (small here) and count directly.
  InstanceAnalysis analysis = MakeAnalysis();
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  for (std::size_t j = 0; j < basis.structures.size(); ++j) {
    std::optional<Structure> s = basis.structures[j].Materialize(200000);
    ASSERT_TRUE(s.has_value()) << "basis structure too large to materialize";
    for (std::size_t i = 0; i < analysis.basis_queries.size(); ++i) {
      EXPECT_EQ(basis.evaluation.At(i, j),
                Rational(CountHoms(analysis.basis_queries[i], *s)));
    }
  }
}

TEST_F(GoodBasisTest, Observation45RadixCountsDistinct) {
  InstanceAnalysis analysis = MakeAnalysis();
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  std::vector<BigInt> counts;
  for (const Structure& w : analysis.basis_queries) {
    counts.push_back(CountHomsSymbolic(w, basis.step2));
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::size_t j = i + 1; j < counts.size(); ++j) {
      EXPECT_NE(counts[i], counts[j]) << "Observation 45 violated";
    }
  }
}

TEST_F(GoodBasisTest, DecencyVanishingOffV) {
  // Add an irrelevant view (not containing q): it must evaluate to 0 on
  // every basis structure (Definition 35 / Step 4).
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q()  :- E(x,x), E(a,b)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- E(x,x), E(y,y), E(a,b), E(c,d)"),
      parser.ParseRule("bad() :- F(x,y)"),  // Uses a relation absent from q.
  };
  InstanceAnalysis analysis = AnalyzeInstance(views, q);
  ASSERT_EQ(analysis.relevant_views.size(), 1u);
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  const ConjunctiveQuery& bad = analysis.views[1];
  for (const StructureExpr& s : basis.structures) {
    EXPECT_EQ(CountHomsSymbolicAny(bad.FrozenBody(), s), BigInt(0));
  }
}

TEST_F(GoodBasisTest, SingleComponentBasis) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- E(x,y)");
  InstanceAnalysis analysis = AnalyzeInstance({}, q);
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  ASSERT_EQ(basis.structures.size(), 1u);
  // k = 1: s_1 = (s2)^0 × q = all-loops × q ≅ q; the 1×1 matrix holds
  // hom(q, q) > 0.
  EXPECT_TRUE(IsNonsingular(basis.evaluation));
  EXPECT_GT(basis.evaluation.At(0, 0), Rational(0));
}

// Example 54 / Figure 2: with W = {w1, w2} and S = {s1 = all-loops
// singleton, s2 = w2}, the evaluation matrix is [[1,4],[1,2]], and the
// points M·(a,b) for natural a,b populate the cone. We reproduce the
// matrix and the first few points of the set P.
TEST(Example54Test, EvaluationMatrixAndConePoints) {
  auto schema = std::make_shared<Schema>();
  RelationId red = schema->AddRelation("R", 2);
  // A concrete Figure-1-like pair with singular M_W (found by exhaustive
  // search, cf. core_test): w1 = the complete 2-element structure with
  // loops, w2 a 3-element structure with hom matrix [4,1;8,2].
  Structure w1(schema);
  w1.AddFact(red, {0, 0});
  w1.AddFact(red, {0, 1});
  w1.AddFact(red, {1, 0});
  w1.AddFact(red, {1, 1});
  Structure w2(schema);
  w2.AddFact(red, {0, 1});
  w2.AddFact(red, {0, 2});
  w2.AddFact(red, {1, 1});
  w2.AddFact(red, {2, 0});
  // Example 54's basis: s1 = the all-loops singleton, s2 = w2.
  Structure s1 = AllLoopsSingleton(schema);
  Structure s2 = w2;
  Mat m(2, 2);
  m.At(0, 0) = Rational(CountHoms(w1, s1));
  m.At(0, 1) = Rational(CountHoms(w1, s2));
  m.At(1, 0) = Rational(CountHoms(w2, s1));
  m.At(1, 1) = Rational(CountHoms(w2, s2));
  // hom(·, all-loops singleton) = 1 for both rows; the second column is
  // (hom(w1,w2), hom(w2,w2)) = (1, 2): nonsingular, unlike M_W.
  EXPECT_EQ(m.At(0, 0), Rational(1));
  EXPECT_EQ(m.At(1, 0), Rational(1));
  EXPECT_TRUE(IsNonsingular(m));
  // Points of P: M·(a,b) for a,b ∈ N come from real structures
  // a·s1 + b·s2 (Definition 51) — cross-check a few against hom counts.
  for (int a = 0; a <= 2; ++a) {
    for (int b = 0; b <= 2; ++b) {
      Structure s = DisjointUnion(ScalarMultiple(a, s1), ScalarMultiple(b, s2));
      Vec coords{Rational(a), Rational(b)};
      Vec point = m.Apply(coords);
      EXPECT_EQ(point[0], Rational(CountHoms(w1, s)));
      EXPECT_EQ(point[1], Rational(CountHoms(w2, s)));
    }
  }
}

// Lemma 50 on a concrete basis: v(s) = (M s⃗) ♂ v⃗.
TEST_F(GoodBasisTest, Lemma50OnNaturalCombinations) {
  InstanceAnalysis analysis = MakeAnalysis();
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  const std::size_t k = basis.structures.size();
  Rng rng(31337);
  for (int iter = 0; iter < 4; ++iter) {
    // s = Σ a_i s_i with small random natural a_i.
    std::vector<StructureExpr> terms;
    Vec coords(k);
    for (std::size_t i = 0; i < k; ++i) {
      std::int64_t a = static_cast<std::int64_t>(rng.Below(3));
      coords[i] = Rational(a);
      terms.push_back(
          StructureExpr::Scalar(BigInt(a), basis.structures[i]));
    }
    StructureExpr s = StructureExpr::Sum(terms, analysis.query.schema_ptr());
    Vec point = basis.evaluation.Apply(coords);
    for (std::size_t vi = 0; vi < analysis.view_vectors.size(); ++vi) {
      const Vec& vvec = analysis.view_vectors[vi];
      // (M s⃗) ♂ v⃗ = Π point[i]^v⃗(i).
      BigInt expected(1);
      for (std::size_t i = 0; i < k; ++i) {
        BigInt base = point[i].numerator();
        expected *= BigInt::Pow(
            base, static_cast<std::uint64_t>(vvec[i].numerator().ToInt64()));
      }
      const ConjunctiveQuery& view =
          analysis.views[analysis.relevant_views[vi]];
      EXPECT_EQ(CountHomsSymbolicAny(view.FrozenBody(), s), expected);
    }
  }
}

}  // namespace
}  // namespace bagdet
