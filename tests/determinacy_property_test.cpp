// Randomized cross-validation of the Theorem-3 decision procedure:
//  * determined   => the witness identity holds on random structures AND no
//                    counterexample pair exists among all small structures;
//  * not determined => the synthesized counterexample verifies exactly.

#include <gtest/gtest.h>

#include "core/determinacy.h"
#include "query/cq.h"
#include "structs/generator.h"
#include "util/rng.h"
#include "hom/hom_cache.h"

namespace bagdet {
namespace {

/// Builds a random boolean query body: a disjoint union of 1–2 random
/// connected components with 1–3 elements each, over the given schema.
/// (Two components per query already exercise multi-dimensional W while
/// keeping the counterexample BigInt sizes — which grow with k = |W| —
/// within test-time budgets.)
Structure RandomQueryBody(const std::shared_ptr<Schema>& schema, Rng* rng) {
  Structure body(schema);
  std::size_t components = 1 + rng->Below(2);
  for (std::size_t c = 0; c < components; ++c) {
    body = DisjointUnion(
        body, RandomConnectedStructure(schema, 1 + rng->Below(3), rng, 2, 3));
  }
  return body;
}

class DeterminacyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::shared_ptr<Schema> schema_ = [] {
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("E", 2);
    return schema;
  }();

  /// All structures over `schema_` with domain size <= 2.
  std::vector<Structure> SmallStructures() {
    std::vector<Structure> all;
    for (std::size_t n = 0; n <= 2; ++n) {
      EnumerateStructures(schema_, n, [&](const Structure& s) {
        all.push_back(s);
        return true;
      });
    }
    return all;
  }
};

TEST_P(DeterminacyPropertyTest, DecisionConsistentWithGroundTruth) {
  Rng rng(GetParam());
  std::vector<Structure> small = SmallStructures();
  for (int iter = 0; iter < 6; ++iter) {
    ConjunctiveQuery q =
        BooleanQueryFromStructure("q", RandomQueryBody(schema_, &rng));
    std::vector<ConjunctiveQuery> views;
    std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), RandomQueryBody(schema_, &rng)));
    }
    DeterminacyResult result = DecideBagDeterminacy(views, q);

    // Ground truth over all pairs of small structures: a pair with equal
    // view answers but different q answers refutes determinacy.
    bool found_refutation = false;
    std::vector<BigInt> q_counts;
    std::vector<std::vector<BigInt>> view_counts;
    q_counts.reserve(small.size());
    for (const Structure& d : small) {
      q_counts.push_back(q.CountHomomorphisms(d));
      std::vector<BigInt> per_view;
      for (const ConjunctiveQuery& v : views) {
        per_view.push_back(v.CountHomomorphisms(d));
      }
      view_counts.push_back(std::move(per_view));
    }
    for (std::size_t a = 0; a < small.size() && !found_refutation; ++a) {
      for (std::size_t b = a + 1; b < small.size(); ++b) {
        if (view_counts[a] == view_counts[b] && q_counts[a] != q_counts[b]) {
          found_refutation = true;
          break;
        }
      }
    }

    if (result.determined) {
      EXPECT_FALSE(found_refutation)
          << "decision says determined but small structures refute it; q="
          << q.ToString();
      // The witness identity holds on every small structure.
      for (const Structure& d : small) {
        EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d))
            << "witness fails on " << d.ToString() << " for q=" << q.ToString();
      }
    } else {
      ASSERT_TRUE(result.counterexample.has_value());
      EXPECT_EQ(VerifyCounterexample(result.analysis, *result.counterexample),
                std::nullopt)
          << "q=" << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminacyPropertyTest,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005, 1006,
                                           1007, 1008));

// End-to-end invariance: for seeded random instances, the full verdict —
// determined bit, witness exponents, counterexample coordinates — must be
// bit-identical with and without hom-cache eviction pressure. Counts are
// pure functions of the interned classes; a cache-dependent verdict is a
// soundness bug, not a flake.
TEST(DeterminacyInvarianceTest, VerdictInvariantUnderCacheBudgets) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(77001);

  for (int iter = 0; iter < 5; ++iter) {
    ConjunctiveQuery q =
        BooleanQueryFromStructure("q", RandomQueryBody(schema, &rng));
    std::vector<ConjunctiveQuery> views;
    const std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), RandomQueryBody(schema, &rng)));
    }

    const DeterminacyResult base = DecideBagDeterminacy(views, q);
    DeterminacyOptions squeezed;
    squeezed.shared_hom_cache = std::make_shared<HomCache>();
    squeezed.shared_hom_cache->set_max_entries(16);  // 2 per shard.
    const DeterminacyResult other = DecideBagDeterminacy(views, q, squeezed);

    ASSERT_EQ(base.determined, other.determined)
        << "iter " << iter << " q=" << q.ToString();
    ASSERT_EQ(base.witness.has_value(), other.witness.has_value());
    if (base.witness.has_value()) {
      EXPECT_EQ(base.witness->view_indices, other.witness->view_indices)
          << "iter " << iter;
      EXPECT_EQ(base.witness->exponents, other.witness->exponents)
          << "iter " << iter;
    }
    ASSERT_EQ(base.counterexample.has_value(),
              other.counterexample.has_value());
    if (base.counterexample.has_value()) {
      const BagCounterexample& a = *base.counterexample;
      const BagCounterexample& b = *other.counterexample;
      EXPECT_EQ(a.coeffs_d, b.coeffs_d) << "iter " << iter;
      EXPECT_EQ(a.coeffs_d_prime, b.coeffs_d_prime) << "iter " << iter;
      EXPECT_EQ(a.evaluation_matrix, b.evaluation_matrix) << "iter " << iter;
      EXPECT_EQ(a.z, b.z) << "iter " << iter;
      EXPECT_EQ(a.t, b.t) << "iter " << iter;
    }
  }
}

// A targeted stress case: many views, mixed relevance, fractional witness.
TEST(DeterminacyStressTest, MixedRelevanceInstance) {
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  RelationId f = schema->AddRelation("F", 2);
  Structure loop(schema);
  loop.AddFact(e, {0, 0});
  Structure edge(schema);
  edge.AddFact(e, {0, 1});
  Structure f_edge(schema);
  f_edge.AddFact(f, {0, 1});
  auto combine = [&](int a, int b, int c) {
    Structure s(schema);
    for (int i = 0; i < a; ++i) s = DisjointUnion(s, loop);
    for (int i = 0; i < b; ++i) s = DisjointUnion(s, edge);
    for (int i = 0; i < c; ++i) s = DisjointUnion(s, f_edge);
    return s;
  };
  ConjunctiveQuery q = BooleanQueryFromStructure("q", combine(1, 1, 0));
  std::vector<ConjunctiveQuery> views = {
      BooleanQueryFromStructure("v1", combine(2, 1, 0)),
      BooleanQueryFromStructure("v2", combine(1, 2, 0)),
      // Irrelevant: uses F which q does not touch, so q ⊄set v3.
      BooleanQueryFromStructure("v3", combine(1, 1, 1)),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  EXPECT_EQ(result.analysis.relevant_views.size(), 2u);
  Rng rng(2024);
  for (int iter = 0; iter < 6; ++iter) {
    Structure d = RandomStructure(schema, 1 + rng.Below(3), &rng);
    EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d));
  }
}

}  // namespace
}  // namespace bagdet
