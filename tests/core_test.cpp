// Tests for the Theorem-3 decision procedure on the paper's worked
// examples (Examples 2, 32, 39/Figure 1, 42, Corollary 33) and assorted
// edge cases.

#include "core/determinacy.h"

#include <gtest/gtest.h>

#include "hom/hom.h"
#include "linalg/gauss.h"
#include "query/parser.h"
#include "reference/oracles.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(AnalyzeInstanceTest, Example2Analysis) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q()  :- P(u,x), R(x,y), S(y,z)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- P(u,x), R(x,y)"),
      parser.ParseRule("v2() :- R(x,y), S(y,z)"),
  };
  InstanceAnalysis analysis = AnalyzeInstance(views, q);
  // Both views contain q under set semantics.
  EXPECT_EQ(analysis.relevant_views.size(), 2u);
  // W = {PR-path, RS-path, PRS-path}: each body is connected, pairwise
  // non-isomorphic.
  EXPECT_EQ(analysis.basis_queries.size(), 3u);
  // Each query body is a single component: unit vectors / distinct axes.
  EXPECT_EQ(analysis.query_vector.size(), 3u);
  Rational total;
  for (std::size_t i = 0; i < 3; ++i) total += analysis.query_vector[i];
  EXPECT_EQ(total, Rational(1));
}

TEST(AnalyzeInstanceTest, RejectsNonBooleanAndNullary) {
  QueryParser parser;
  ConjunctiveQuery unary = parser.ParseRule("q(x) :- R(x,y)");
  ConjunctiveQuery ok = parser.ParseRule("v() :- R(x,y)");
  EXPECT_THROW(AnalyzeInstance({ok}, unary), std::invalid_argument);
  ConjunctiveQuery nullary = parser.ParseRule("n() :- H()");
  ConjunctiveQuery ok2 = parser.ParseRule("w() :- R(x,y)");
  EXPECT_THROW(AnalyzeInstance({nullary}, ok2), std::invalid_argument);
  EXPECT_THROW(AnalyzeInstance({ok2}, nullary), std::invalid_argument);
}

TEST(AnalyzeInstanceTest, RejectsSchemaMismatch) {
  QueryParser parser_a;
  QueryParser parser_b;
  ConjunctiveQuery q = parser_a.ParseRule("q() :- R(x,y)");
  ConjunctiveQuery v = parser_b.ParseRule("v() :- S(x,y)");
  EXPECT_THROW(AnalyzeInstance({v}, q), std::invalid_argument);
}

TEST(AnalyzeInstanceTest, IrrelevantViewsExcluded) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- R(x,y)"),
      parser.ParseRule("v2() :- R(x,x)"),  // q ⊄set v2 (loop not in q).
  };
  InstanceAnalysis analysis = AnalyzeInstance(views, q);
  ASSERT_EQ(analysis.relevant_views.size(), 1u);
  EXPECT_EQ(analysis.relevant_views[0], 0u);
  // W contains only components of V ∪ {q}, not of the irrelevant v2.
  EXPECT_EQ(analysis.basis_queries.size(), 1u);
}

TEST(DecideTest, Example2NotBagDetermined) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q()  :- P(u,x), R(x,y), S(y,z)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- P(u,x), R(x,y)"),
      parser.ParseRule("v2() :- R(x,y), S(y,z)"),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  EXPECT_FALSE(result.determined);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(VerifyCounterexample(result.analysis, *result.counterexample),
            std::nullopt);
}

TEST(DecideTest, TrivialSelfDeterminacy) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), S(y,z)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(a,b), S(b,c)");
  DeterminacyResult result = DecideBagDeterminacy({v}, q);
  ASSERT_TRUE(result.determined);
  EXPECT_EQ(result.witness->exponents, (Vec{Rational(1)}));
}

TEST(DecideTest, EmptyViewSetDeterminesOnlyTrivialQuery) {
  QueryParser parser;
  ConjunctiveQuery trivial = parser.ParseRule("q() :- true");
  parser.ParseRule("dummy() :- R(x,y)");  // Registers R in the schema.
  DeterminacyResult r1 = DecideBagDeterminacy({}, trivial);
  EXPECT_TRUE(r1.determined);
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  DeterminacyResult r2 = DecideBagDeterminacy({}, q);
  EXPECT_FALSE(r2.determined);
  ASSERT_TRUE(r2.counterexample.has_value());
  EXPECT_EQ(VerifyCounterexample(r2.analysis, *r2.counterexample),
            std::nullopt);
}

TEST(DecideTest, IrrelevantViewsAreNeverInterned) {
  // q = P2 + E1 (a 2-edge path plus a separate edge). v1 = E1 and v2 = P2
  // contain q; the loop, the 2-cycle and loop + edge do not (q has
  // neither a loop nor a 2-cycle), so only q, v1 and v2 are interned.
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- E(x,y), E(y,z), E(u,w)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- E(x,y)"),
      parser.ParseRule("v2() :- E(x,y), E(y,z)"),
      parser.ParseRule("v3() :- E(x,x)"),
      parser.ParseRule("v4() :- E(x,y), E(y,x)"),
      parser.ParseRule("v5() :- E(a,a), E(b,c)"),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  EXPECT_EQ(result.analysis.relevant_views, (std::vector<std::size_t>{0, 1}));
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_EQ(result.witness->view_indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(result.witness->exponents, (Vec{Rational(1), Rational(1)}));

  // The private pool holds exactly W, the component classes of q, v1, v2.
  const StructurePool& pool = result.analysis.hom_cache->pool();
  EXPECT_EQ(result.analysis.basis_queries.size(), 2u);
  EXPECT_EQ(pool.size(), 2u);
  // The loop (v3, and a component of v5) and the 2-cycle (v4) are not.
  EXPECT_EQ(pool.Find(views[2].FrozenBody()), kInvalidStructureRef);
  EXPECT_EQ(pool.Find(views[3].FrozenBody()), kInvalidStructureRef);
}

TEST(DecideTest, Example32WitnessExponents) {
  // Example 32: with w1, w2, w3 pairwise non-isomorphic connected
  // structures, q = w1 + w2 + 2w3, v1 = 2w1 + w2 + 3w3,
  // v2 = 5w1 + 2w2 + 7w3, the witness is q⃗ = 3v⃗1 − v⃗2.
  auto schema = std::make_shared<Schema>();
  RelationId r = schema->AddRelation("R", 2);
  Structure loop(schema);
  loop.AddFact(r, {0, 0});
  Structure edge(schema);
  edge.AddFact(r, {0, 1});
  Structure path2(schema);
  path2.AddFact(r, {0, 1});
  path2.AddFact(r, {1, 2});
  auto combine = [&](int a, int b, int c) {
    Structure s(schema);
    for (int i = 0; i < a; ++i) s = DisjointUnion(s, loop);
    for (int i = 0; i < b; ++i) s = DisjointUnion(s, edge);
    for (int i = 0; i < c; ++i) s = DisjointUnion(s, path2);
    return s;
  };
  ConjunctiveQuery q = BooleanQueryFromStructure("q", combine(1, 1, 2));
  std::vector<ConjunctiveQuery> views = {
      BooleanQueryFromStructure("v1", combine(2, 1, 3)),
      BooleanQueryFromStructure("v2", combine(5, 2, 7)),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  ASSERT_EQ(result.analysis.basis_queries.size(), 3u);
  // The witness reconstructs q⃗ from the view vectors.
  Vec reconstructed(3);
  for (std::size_t j = 0; j < result.witness->view_indices.size(); ++j) {
    reconstructed += result.analysis.view_vectors[j] *
                     result.witness->exponents[j];
  }
  EXPECT_EQ(reconstructed, result.analysis.query_vector);

  // And the witness formula holds on concrete structures, including ones
  // where some view vanishes.
  Rng rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    Structure d = RandomStructure(schema, 1 + rng.Below(4), &rng);
    EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d))
        << d.ToString();
  }
  EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness,
                                      Structure(schema)));
}

TEST(DecideTest, Corollary33ConnectedCase) {
  // Corollary 33: all queries connected => determinacy iff q ∈ V0.
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- E(x,y), E(y,z)");
  // Connected views, none isomorphic to q.
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- E(x,y)"),
      parser.ParseRule("v2() :- E(x,y), E(y,z), E(z,w)"),
  };
  DeterminacyResult without = DecideBagDeterminacy(views, q);
  EXPECT_FALSE(without.determined);
  ASSERT_TRUE(without.counterexample.has_value());
  EXPECT_EQ(VerifyCounterexample(without.analysis, *without.counterexample),
            std::nullopt);
  // Adding (an isomorphic copy of) q itself flips the verdict.
  views.push_back(parser.ParseRule("v3() :- E(a,b), E(b,c)"));
  DeterminacyResult with_q = DecideBagDeterminacy(views, q);
  EXPECT_TRUE(with_q.determined);
}

TEST(DecideTest, Example42SingularWevaluationStillHandled) {
  // Example 42's point: when M_W is singular, S = W cannot host a
  // counterexample, but the good-basis construction repairs this. We find
  // a concrete singular pair (w1, w2) with hom(w2, w1) > 0 by enumeration,
  // then check the full pipeline on q = w1, V0 = {w2}.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  std::vector<Structure> all;
  for (std::size_t n = 1; n <= 3; ++n) {
    EnumerateStructures(schema, n, [&](const Structure& s) {
      if (s.IsConnected()) all.push_back(s);
      return true;
    });
  }
  std::optional<std::pair<Structure, Structure>> found;
  for (const Structure& w1 : all) {
    for (const Structure& w2 : all) {
      if (reference::IsIsomorphic(w1, w2)) continue;
      if (CountHoms(w2, w1).IsZero()) continue;  // Need q ⊆set v.
      BigInt h11 = CountHoms(w1, w1);
      BigInt h12 = CountHoms(w1, w2);
      BigInt h21 = CountHoms(w2, w1);
      BigInt h22 = CountHoms(w2, w2);
      if (h11 * h22 == h12 * h21) {
        found = {w1, w2};
        break;
      }
    }
    if (found.has_value()) break;
  }
  ASSERT_TRUE(found.has_value()) << "no singular pair in the search space";
  ConjunctiveQuery q = BooleanQueryFromStructure("q", found->first);
  ConjunctiveQuery v = BooleanQueryFromStructure("v", found->second);
  DeterminacyResult result = DecideBagDeterminacy({v}, q);
  EXPECT_FALSE(result.determined);  // q⃗ = e1 ∉ span{e2}.
  ASSERT_TRUE(result.counterexample.has_value());
  // The good basis must NOT be the singular W evaluation; its matrix is
  // nonsingular by construction.
  EXPECT_TRUE(IsNonsingular(result.counterexample->evaluation_matrix));
  EXPECT_EQ(VerifyCounterexample(result.analysis, *result.counterexample),
            std::nullopt);
}

TEST(DecideTest, DuplicateViewsAreHarmless) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(x,y)");
  DeterminacyResult result = DecideBagDeterminacy({v, v, v}, q);
  EXPECT_TRUE(result.determined);
  EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness,
                                      v.FrozenBody()));
}

TEST(DecideTest, WitnessWithRationalExponents) {
  // q = w1 + w2, v1 = 2w1 + w2... no wait — use v1 = 2w1+w2, v2 = w1+2w2:
  // q⃗ = (1,1) = (v⃗1 + v⃗2)/3: genuinely fractional exponents.
  auto schema = std::make_shared<Schema>();
  RelationId r = schema->AddRelation("E", 2);
  Structure loop(schema);
  loop.AddFact(r, {0, 0});
  Structure edge(schema);
  edge.AddFact(r, {0, 1});
  auto combine = [&](int a, int b) {
    Structure s(schema);
    for (int i = 0; i < a; ++i) s = DisjointUnion(s, loop);
    for (int i = 0; i < b; ++i) s = DisjointUnion(s, edge);
    return s;
  };
  ConjunctiveQuery q = BooleanQueryFromStructure("q", combine(1, 1));
  std::vector<ConjunctiveQuery> views = {
      BooleanQueryFromStructure("v1", combine(2, 1)),
      BooleanQueryFromStructure("v2", combine(1, 2)),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  bool fractional = false;
  for (std::size_t j = 0; j < result.witness->exponents.size(); ++j) {
    if (!result.witness->exponents[j].IsInteger()) fractional = true;
  }
  EXPECT_TRUE(fractional);
  Rng rng(123);
  for (int iter = 0; iter < 8; ++iter) {
    Structure d = RandomStructure(schema, 1 + rng.Below(4), &rng);
    EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d));
  }
}

TEST(DecideTest, NoCounterexampleWhenNotRequested) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  DeterminacyOptions options;
  options.want_counterexample = false;
  DeterminacyResult result = DecideBagDeterminacy({}, q, options);
  EXPECT_FALSE(result.determined);
  EXPECT_FALSE(result.counterexample.has_value());
}

TEST(DecideTest, SummaryMentionsVerdict) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(a,b)");
  DeterminacyResult yes = DecideBagDeterminacy({v}, q);
  EXPECT_NE(yes.Summary().find("DETERMINED"), std::string::npos);
  DeterminacyResult no = DecideBagDeterminacy({}, q);
  EXPECT_NE(no.Summary().find("NOT determined"), std::string::npos);
}

// The bag/set gap: Example 2 is set-determined (folklore) but not
// bag-determined; conversely bag-determinacy implies the witness identity
// which we exercise above. Here we additionally pin the corollary from the
// proof of Theorem 3: ⟶bag is strictly stronger than ⟶set for boolean CQs.
TEST(DecideTest, BagStrictlyStrongerThanSet) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q()  :- P(u,x), R(x,y), S(y,z)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- P(u,x), R(x,y)"),
      parser.ParseRule("v2() :- R(x,y), S(y,z)"),
  };
  // Not bag-determined (checked in Example2NotBagDetermined). Set
  // determinacy of this instance is the paper's Example 2 claim; our
  // library decides bag only, so here we just re-assert the negative bag
  // verdict to document the gap.
  EXPECT_FALSE(DecideBagDeterminacy(views, q).determined);
}

}  // namespace
}  // namespace bagdet
