// Differential test of counterexample synthesis (Lemmas 55–57): the
// integer sign-test walk of SynthesizeCounterexample against a reference
// copy of the rational walk it replaced, which rebuilt t^z ∘ p as
// normalized rationals and applied the cone's rational inverse at every
// step. Both must pick the same j, hence the same t, and produce the same
// certificate bit for bit; every result must also verify exactly.
//
// Instances: the paper's Example 2 and Corollary 33 rows, and cycle and
// digraph families with k = 2..7 basis components. The set is checked to
// reach deep walks (j ≥ 40) and orthogonal witnesses z with negative
// entries and entries of magnitude ≥ 2.

#include "core/counterexample.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/basis.h"
#include "core/determinacy.h"
#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "query/cq.h"
#include "query/parser.h"
#include "structs/structure.h"
#include "util/rng.h"

namespace bagdet {
namespace {

/// Reference: the Lemma 57 walk with a full rational rebuild per step.
BagCounterexample ReferenceSynthesize(const InstanceAnalysis& analysis,
                                      const GoodBasis& basis) {
  const std::size_t k = analysis.basis_queries.size();
  BagCounterexample result;
  result.basis_structures = basis.structures;
  result.evaluation_matrix = basis.evaluation;
  std::optional<Vec> z =
      OrthogonalWitness(analysis.view_vectors, analysis.query_vector);
  if (!z.has_value()) throw std::logic_error("query vector in view span");
  result.z = std::move(*z);

  SimplicialCone cone(basis.evaluation);
  Vec ones(k);
  for (std::size_t i = 0; i < k; ++i) ones[i] = Rational(1);
  Vec p = cone.InteriorPoint();

  Vec alpha_prime;
  Rational t;
  for (std::int64_t j = 1;; ++j) {
    t = Rational(1) + Rational(BigInt(1), BigInt::Pow(BigInt(2), j));
    // The paper's t^z ∘ p (Definition 48(1)): entrywise t^{z_i} · p_i.
    Vec t_pow_z_p(k);
    for (std::size_t i = 0; i < k; ++i) {
      t_pow_z_p[i] = Rational::Pow(t, result.z[i].numerator().ToInt64()) * p[i];
    }
    alpha_prime = cone.Coordinates(t_pow_z_p);
    if (alpha_prime.IsNonNegative()) break;
    if (j > 4096) throw std::logic_error("walk failed to converge");
  }
  result.t = t;

  Rational c_prime{alpha_prime.CommonDenominator()};
  result.coeffs_d = ones * c_prime;
  result.coeffs_d_prime = alpha_prime * c_prime;
  return result;
}

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure Edges(const std::shared_ptr<Schema>& schema,
                const std::vector<std::pair<Element, Element>>& edges) {
  Structure s(schema);
  for (const auto& [a, b] : edges) s.AddFact(0, {a, b});
  return s;
}

/// Directed cycles C_1 (a loop) .. C_k.
std::vector<Structure> CycleLibrary(const std::shared_ptr<Schema>& schema,
                                    std::size_t k) {
  std::vector<Structure> comps;
  for (Element len = 1; len <= k; ++len) {
    std::vector<std::pair<Element, Element>> edges;
    for (Element i = 0; i < len; ++i) {
      edges.push_back({i, static_cast<Element>((i + 1) % len)});
    }
    comps.push_back(Edges(schema, edges));
  }
  return comps;
}

/// A loop followed by k-1 pairwise non-isomorphic connected loop-free
/// digraphs. The loop absorbs every view, so all views are relevant.
std::vector<Structure> DigraphLibrary(const std::shared_ptr<Schema>& schema,
                                      std::size_t k) {
  const std::vector<std::vector<std::pair<Element, Element>>> shapes = {
      {{0, 0}},                          // loop
      {{0, 1}},                          // edge
      {{0, 1}, {1, 0}},                  // 2-cycle
      {{0, 1}, {1, 2}},                  // 2-path
      {{0, 1}, {0, 2}},                  // out-star
      {{1, 0}, {2, 0}},                  // in-star
      {{0, 1}, {1, 2}, {0, 2}},          // transitive triangle
  };
  std::vector<Structure> comps;
  for (std::size_t i = 0; i < k; ++i) comps.push_back(Edges(schema, shapes[i]));
  return comps;
}

ConjunctiveQuery Combine(const std::string& name,
                         const std::vector<Structure>& comps,
                         const std::vector<int>& mult) {
  Structure body(comps[0].schema_ptr());
  for (std::size_t i = 0; i < comps.size(); ++i) {
    for (int m = 0; m < mult[i]; ++m) body = DisjointUnion(body, comps[i]);
  }
  return BooleanQueryFromStructure(name, body);
}

struct Instance {
  std::string id;
  std::vector<ConjunctiveQuery> views;
  ConjunctiveQuery query;
};

/// A NOT-determined instance over `comps`: the query contains the loop
/// comps[0], so every view maps into it and is relevant. Every view has equal
/// multiplicity on two components a != b and the query does not, so
/// e_a − e_b is orthogonal to the views but not to q (Fact 5). Views draw
/// multiplicities in [0, hi]; larger hi gives witnesses with larger entries.
Instance Undetermined(const std::string& id, const std::vector<Structure>& comps,
                      std::size_t num_views, int hi, Rng* rng) {
  const std::size_t k = comps.size();
  const std::size_t a = rng->Below(k);
  std::size_t b = rng->Below(k - 1);
  if (b >= a) ++b;
  Instance inst{id, {}, ConjunctiveQuery()};
  for (std::size_t v = 0; v < num_views; ++v) {
    std::vector<int> mult(k);
    for (int& m : mult) m = static_cast<int>(rng->Range(0, hi));
    mult[b] = mult[a];
    if (std::all_of(mult.begin(), mult.end(), [](int m) { return m == 0; })) {
      mult[a] = mult[b] = 1;
    }
    inst.views.push_back(Combine("v" + std::to_string(v), comps, mult));
  }
  std::vector<int> q(k);
  for (int& m : q) m = static_cast<int>(rng->Range(1, 2));
  if (q[a] == q[b]) q[b] = 3 - q[a];
  inst.query = Combine("q", comps, q);
  return inst;
}

std::vector<Instance> Instances() {
  std::vector<Instance> out;
  QueryParser ex2;
  out.push_back({"EX2",
                 {ex2.ParseRule("v1() :- P(u,x), R(x,y)"),
                  ex2.ParseRule("v2() :- R(x,y), S(y,z)")},
                 ex2.ParseRule("q() :- P(u,x), R(x,y), S(y,z)")});
  QueryParser c33;
  out.push_back({"C33-without-q",
                 {c33.ParseRule("v1() :- E(x,y)"),
                  c33.ParseRule("v2() :- E(x,y), E(y,z), E(z,w)")},
                 c33.ParseRule("q() :- E(x,y), E(y,z)")});

  auto schema = GraphSchema();
  Rng rng(57);
  for (std::size_t k = 2; k <= 7; ++k) {
    const std::vector<Structure> cycles = CycleLibrary(schema, k);
    const std::vector<Structure> digraphs = DigraphLibrary(schema, k);
    for (std::size_t views = 1; views <= 3; ++views) {
      const std::string suffix =
          "-k" + std::to_string(k) + "-v" + std::to_string(views);
      out.push_back(Undetermined("cycle" + suffix, cycles, views, 2, &rng));
      out.push_back(Undetermined("digraph" + suffix, digraphs, views, 3, &rng));
    }
  }
  return out;
}

/// j of t = 1 + 2^-j.
std::size_t WalkSteps(const Rational& t) {
  return t.denominator().BitLength() - 1;
}

TEST(CounterexampleDifferentialTest, MatchesRationalWalkBitForBit) {
  std::size_t deep_rows = 0;
  bool deep_row_with_wide_z = false;
  for (const Instance& inst : Instances()) {
    SCOPED_TRACE(inst.id);
    DeterminacyOptions options;
    options.want_counterexample = false;
    DeterminacyResult decided =
        DecideBagDeterminacy(inst.views, inst.query, options);
    ASSERT_FALSE(decided.determined);
    const InstanceAnalysis& analysis = decided.analysis;
    const GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());

    const BagCounterexample got = SynthesizeCounterexample(analysis, basis);
    const BagCounterexample want = ReferenceSynthesize(analysis, basis);
    EXPECT_EQ(got.z, want.z);
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.coeffs_d, want.coeffs_d);
    EXPECT_EQ(got.coeffs_d_prime, want.coeffs_d_prime);
    EXPECT_EQ(got.evaluation_matrix, want.evaluation_matrix);
    EXPECT_EQ(VerifyCounterexample(analysis, got), std::nullopt);

    if (WalkSteps(got.t) < 40) continue;
    ++deep_rows;
    bool negative = false;
    bool large = false;
    for (std::size_t i = 0; i < got.z.size(); ++i) {
      negative |= got.z[i].IsNegative();
      large |= got.z[i].numerator().Abs() >= BigInt(2);
    }
    deep_row_with_wide_z |= negative && large;
  }
  // Coverage of the regimes the integer walk must get right: long walks,
  // where the scaled integers grow to hundreds of bits, and witnesses whose
  // negative and |z_i| >= 2 entries exercise both power tables.
  EXPECT_GE(deep_rows, 3u);
  EXPECT_TRUE(deep_row_with_wide_z);
}

}  // namespace
}  // namespace bagdet
