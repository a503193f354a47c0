// Randomized differential test pinning the optimized variable-elimination
// engine (CountHoms) to the reference semantics of tests/reference/
// oracles.h: backtracking enumeration (reference::CountHomsByEnumeration,
// one EnumerateHoms visit per hom) and brute-force assignment checking
// (reference::CountHomsNaive) must agree on every generated pair — including
// disconnected sources, isolated elements, empty domains, and nullary
// relations — and, with and without a cached canonical form, on sources
// that repeat a component class verbatim or relabelled. Counts whose DP
// key space sits on either side of the direct-indexing threshold (2^16
// cells) are pinned to closed forms instead, where the naive reference
// would be too slow.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hom/hom.h"
#include "reference/oracles.h"
#include "structs/canonical.h"
#include "structs/generator.h"
#include "util/rng.h"
#include "test_matrices.h"

namespace bagdet {
namespace {

void ExpectAllEnginesAgree(const Structure& from, const Structure& to) {
  const BigInt dp = CountHoms(from, to);
  const BigInt enumerated = reference::CountHomsByEnumeration(from, to);
  const BigInt naive = reference::CountHomsNaive(from, to);
  EXPECT_EQ(dp, enumerated) << "from=" << from.ToString()
                            << " to=" << to.ToString();
  EXPECT_EQ(dp, naive) << "from=" << from.ToString()
                       << " to=" << to.ToString();
  EXPECT_EQ(ExistsHom(from, to), !dp.IsZero())
      << "from=" << from.ToString() << " to=" << to.ToString();
}

TEST(HomDiffTest, MixedAritySchemaWithNullaryRelations) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);  // Nullary: pure presence constraint.
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(20260729);
  int disconnected_sources = 0;
  for (int iter = 0; iter < 160; ++iter) {
    // Domain sizes 0..4 keep the naive m^n cross-check instant while still
    // hitting empty domains and isolated elements.
    const std::size_t from_size = rng.Below(5);
    const std::size_t to_size = rng.Below(5);
    // Sweep sparse to dense fact densities.
    const std::uint64_t numer = 1 + rng.Below(3);
    Structure from = RandomStructure(schema, from_size, &rng, numer, 4);
    Structure to = RandomStructure(schema, to_size, &rng, numer, 4);
    if (!from.IsConnected()) ++disconnected_sources;
    ExpectAllEnginesAgree(from, to);
  }
  // The sweep must actually exercise the component-decomposition path.
  EXPECT_GT(disconnected_sources, 20);
}

TEST(HomDiffTest, HigherArityRelations) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("T", 3);
  Rng rng(77002);
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t from_size = rng.Below(4);
    const std::size_t to_size = 1 + rng.Below(3);
    Structure from = RandomStructure(schema, from_size, &rng, 1, 3);
    Structure to = RandomStructure(schema, to_size, &rng, 1, 2);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, ConnectedSourcesIntoLargerTargets) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(5150);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t from_size = 1 + rng.Below(3);
    const std::size_t to_size = 1 + rng.Below(6);
    Structure from = RandomConnectedStructure(schema, from_size, &rng, 1, 2);
    Structure to = RandomStructure(schema, to_size, &rng, 1, 2);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, DenseNearRegularDigraphs) {
  // Dense digraphs give big uniform buckets, which defeat single-bucket
  // selection in both engines and drive the Matcher's two-bucket
  // intersection.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(0xdeca1);
  const int iters = 30 * testmat::DiffIterScale();
  for (int iter = 0; iter < iters; ++iter) {
    Structure from =
        RandomConnectedStructure(schema, 2 + rng.Below(3), &rng, 3, 4);
    Structure to = RandomStructure(schema, 2 + rng.Below(4), &rng, 3, 4);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, HighAritySparseSchemas) {
  // High-arity sparse relations stress repeated variables within an atom
  // and positions whose buckets are mostly empty.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("T", 3);
  schema->AddRelation("Q", 4);
  Rng rng(0x9a7e5);
  const int iters = 25 * testmat::DiffIterScale();
  for (int iter = 0; iter < iters; ++iter) {
    Structure from = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 6);
    Structure to = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 3);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, DisconnectedSourcesWithNullaries) {
  // Component decomposition × nullary presence constraints: the
  // product-of-components fold must stay exact.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(0xd15c0);
  const int iters = 30 * testmat::DiffIterScale();
  int disconnected = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Structure from = RandomStructure(schema, rng.Below(5), &rng, 1, 3);
    Structure to = RandomStructure(schema, rng.Below(4), &rng, 1, 2);
    if (!from.IsConnected()) ++disconnected;
    ExpectAllEnginesAgree(from, to);
  }
  EXPECT_GT(disconnected, iters / 4);
}

/// CountHoms groups components by class: through the cached certificates
/// when `from` has a canonical form, by exact equality otherwise. Checks
/// both against the brute-force reference, and that counting never
/// computes a canonical form itself.
void ExpectGroupedCountExact(const Structure& from, const Structure& to) {
  ASSERT_EQ(from.CachedCanonicalData(), nullptr);
  const BigInt naive = reference::CountHomsNaive(from, to);
  EXPECT_EQ(CountHoms(from, to), naive)
      << "uncanonicalized from=" << from.ToString() << " to=" << to.ToString();
  EXPECT_EQ(from.CachedCanonicalData(), nullptr);
  Structure canonical = from;
  canonical.CanonicalData();
  ASSERT_NE(canonical.CachedCanonicalData(), nullptr);
  EXPECT_EQ(CountHoms(canonical, to), naive)
      << "canonicalized from=" << from.ToString() << " to=" << to.ToString();
}

TEST(HomDiffTest, RepeatedAndRelabelledComponents) {
  auto schema = std::make_shared<Schema>();
  const RelationId h = schema->AddRelation("H", 0);
  const RelationId p = schema->AddRelation("P", 1);
  const RelationId e = schema->AddRelation("E", 2);

  // One class three times (twice verbatim, once relabelled), a class of
  // the same size and fact count that is not isomorphic to it, a loop,
  // two isolated elements and a nullary fact.
  Structure from(schema);
  from.AddFact(e, {0, 1});
  from.AddFact(p, {0});
  from.AddFact(e, {2, 3});
  from.AddFact(p, {2});
  from.AddFact(e, {5, 4});
  from.AddFact(p, {5});
  from.AddFact(e, {6, 7});
  from.AddFact(p, {7});
  from.AddFact(e, {8, 8});
  from.EnsureDomain(11);
  from.AddFact(h, {});
  ASSERT_EQ(from.Components().size(), 8u);
  ASSERT_NE(from.Components()[0], from.Components()[2]);  // Relabelled.

  Structure to(schema, 3);
  to.AddFact(h, {});
  to.AddFact(p, {0});
  to.AddFact(p, {1});
  to.AddFact(e, {0, 1});
  to.AddFact(e, {0, 2});
  to.AddFact(e, {1, 1});
  ExpectGroupedCountExact(from, to);
  // hom = 3^3 (P on the source) · 2 (P on the target) · 1 (loop)
  //       · 3^2 (isolated) · 1 (H).
  EXPECT_EQ(CountHoms(from, to), BigInt(27 * 2 * 9));

  // A missing nullary fact zeroes the count; so does an absent loop.
  Structure no_h(schema, 2);
  no_h.AddFact(p, {0});
  no_h.AddFact(e, {0, 0});
  ExpectGroupedCountExact(from, no_h);
  Structure no_loop(schema, 2);
  no_loop.AddFact(h, {});
  no_loop.AddFact(p, {0});
  no_loop.AddFact(e, {0, 1});
  ExpectGroupedCountExact(from, no_loop);
}

TEST(HomDiffTest, RandomSourcesWithRepeatedComponents) {
  auto schema = std::make_shared<Schema>();
  const RelationId h = schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(0xc1a55);
  const int iters = 40 * testmat::DiffIterScale();
  int grouped = 0;
  for (int iter = 0; iter < iters; ++iter) {
    // At most 10 source elements into at most 3 keeps the m^n reference
    // cheap.
    // Pieces of one size, so distinct classes often look alike.
    Structure from(schema);
    const std::size_t kinds = 1 + rng.Below(2);
    const std::size_t piece_size = 1 + rng.Below(2);
    for (std::size_t kind = 0; kind < kinds; ++kind) {
      const Structure piece =
          RandomConnectedStructure(schema, piece_size, &rng, 1, 2);
      // Reversing the names relabels a two-element piece.
      const Structure relabelled =
          piece.MapDomain(piece_size == 2 ? std::vector<Element>{1, 0}
                                          : std::vector<Element>{0},
                          piece_size);
      const std::size_t copies = 1 + rng.Below(3);
      for (std::size_t c = 0; c < copies; ++c) {
        if (from.DomainSize() + piece_size > 8) break;
        from = DisjointUnion(from, rng.Below(2) == 0 ? piece : relabelled);
      }
    }
    for (std::size_t i = rng.Below(3); i > 0; --i) from.AddElement();
    if (rng.Below(2) == 0) from.AddFact(h, {});
    ASSERT_LE(from.DomainSize(), 10u);
    const Structure to = RandomStructure(schema, rng.Below(4), &rng, 1, 2);
    ExpectGroupedCountExact(from, to);

    const std::vector<std::string>& certificates =
        from.CanonicalData().component_certificates;
    const std::set<std::string> classes(certificates.begin(),
                                        certificates.end());
    if (classes.size() < certificates.size()) ++grouped;
  }
  // The sweep must actually repeat classes.
  EXPECT_GT(grouped, iters / 2);
}

// The graph builders below write relation 0, which must be binary.

/// Complete loopless digraph K_n: every ordered pair of distinct elements.
Structure Clique(const std::shared_ptr<Schema>& schema, std::size_t n) {
  Structure s(schema, n);
  for (Element a = 0; a < n; ++a) {
    for (Element b = 0; b < n; ++b) {
      if (a != b) s.AddFact(0, {a, b});
    }
  }
  return s;
}

/// Transitive tournament on n elements: a -> b for every a > b. Paths
/// into it descend, so their keys reach element 0.
Structure Tournament(const std::shared_ptr<Schema>& schema, std::size_t n) {
  Structure s(schema, n);
  for (Element a = 0; a < n; ++a) {
    for (Element b = 0; b < a; ++b) s.AddFact(0, {a, b});
  }
  return s;
}

/// Directed path with `edges` edges: 0 -> 1 -> ... -> edges.
Structure DirectedPath(const std::shared_ptr<Schema>& schema,
                       std::size_t edges) {
  Structure s(schema, edges + 1);
  for (Element a = 0; a < edges; ++a) s.AddFact(0, {a, a + 1});
  return s;
}

/// Undirected path (both edge directions) with `edges` edges.
Structure SymmetricPath(const std::shared_ptr<Schema>& schema,
                        std::size_t edges) {
  Structure s(schema, edges + 1);
  for (Element a = 0; a < edges; ++a) {
    s.AddFact(0, {a, a + 1});
    s.AddFact(0, {a + 1, a});
  }
  return s;
}

/// n · (n-1) · ... · (n-k+1): homs of the undirected clique K_k into K_n
/// (the chromatic polynomial of K_k).
BigInt FallingFactorial(std::int64_t n, std::int64_t k) {
  BigInt product(1);
  for (std::int64_t i = 0; i < k; ++i) product *= BigInt(n - i);
  return product;
}

/// n · (n-1)^k: homs of a k-edge path, directed or undirected, into K_n.
BigInt PathIntoClique(std::int64_t n, std::uint64_t k) {
  return BigInt(n) * BigInt::Pow(BigInt(n - 1), k);
}

/// n choose k: homs of a (k-1)-edge directed path, or of the transitive
/// tournament on k elements, into the one on n (strictly monotone maps).
BigInt Binomial(std::int64_t n, std::int64_t k) {
  if (k > n) return BigInt(0);
  BigInt numerator = FallingFactorial(n, k);
  BigInt denominator = FallingFactorial(k, k);
  return numerator / denominator;
}

/// CountHoms against a closed form, and against the brute-force reference
/// when its |dom(to)|^|dom(from)| assignments are few enough.
void ExpectClosedForm(const Structure& from, const Structure& to,
                      const BigInt& expected) {
  EXPECT_EQ(CountHoms(from, to), expected)
      << "from=" << from.ToString() << " |dom(to)|=" << to.DomainSize();
  double assignments = 1;
  for (std::size_t i = 0; i < from.DomainSize(); ++i) {
    assignments *= static_cast<double>(to.DomainSize());
  }
  if (assignments <= 1 << 16) {
    EXPECT_EQ(reference::CountHomsNaive(from, to), expected)
        << "from=" << from.ToString() << " |dom(to)|=" << to.DomainSize();
  }
}

TEST(HomDiffTest, DpKeyWidthsZeroToFour) {
  // Key widths 0 (a lone edge: both ends die at once), 1 (directed
  // paths), 2 (undirected paths), 3 (the triangle) and 4 (K_4), all in
  // direct mode, each also checked against the brute-force reference.
  // A clique's symmetry would hide a count credited to the wrong key, so
  // the same widths also run into transitive tournaments.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  for (std::int64_t n = 1; n <= 6; ++n) {
    const std::size_t size = static_cast<std::size_t>(n);
    const Structure clique = Clique(schema, size);
    ExpectClosedForm(DirectedPath(schema, 1), clique, PathIntoClique(n, 1));
    ExpectClosedForm(DirectedPath(schema, 4), clique, PathIntoClique(n, 4));
    ExpectClosedForm(SymmetricPath(schema, 3), clique, PathIntoClique(n, 3));
    ExpectClosedForm(Clique(schema, 3), clique, FallingFactorial(n, 3));
    ExpectClosedForm(Clique(schema, 4), clique, FallingFactorial(n, 4));
    const Structure tournament = Tournament(schema, size);
    ExpectClosedForm(DirectedPath(schema, 1), tournament, Binomial(n, 2));
    ExpectClosedForm(DirectedPath(schema, 4), tournament, Binomial(n, 5));
    ExpectClosedForm(Tournament(schema, 3), tournament, Binomial(n, 3));
    ExpectClosedForm(Tournament(schema, 4), tournament, Binomial(n, 4));
    ExpectClosedForm(SymmetricPath(schema, 1), tournament, BigInt(0));
  }
}

TEST(HomDiffTest, DpTableOnBothSidesOfTheDirectIndexThreshold) {
  // A DP table indexes slots directly when |dom(to)|^width <= 2^16 cells
  // and hashes otherwise. Each pair of targets puts one key width on
  // either side of that boundary.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  // Width 2: 256^2 = 65536 cells (direct), 257^2 = 66049 (hash), for the
  // undirected edge, whose ends both stay live after its first atom.
  for (std::int64_t n : {256, 257}) {
    const Structure to = Clique(schema, static_cast<std::size_t>(n));
    ExpectClosedForm(SymmetricPath(schema, 1), to, PathIntoClique(n, 1));
  }
  // Width 3: 40^3 = 64000 cells (direct), 41^3 = 68921 (hash). The
  // triangle's plan runs widths 2, 2, 3, 3, 2, 0, so into K_41 its two
  // tables switch direct -> hash -> direct between steps.
  for (std::int64_t n : {40, 41}) {
    const Structure to = Clique(schema, static_cast<std::size_t>(n));
    ExpectClosedForm(Clique(schema, 3), to, FallingFactorial(n, 3));
  }
  // Width 4: 16^4 = 65536 cells (direct), 17^4 = 83521 (hash).
  for (std::int64_t n : {16, 17}) {
    const Structure to = Clique(schema, static_cast<std::size_t>(n));
    ExpectClosedForm(Clique(schema, 4), to, FallingFactorial(n, 4));
  }
}

TEST(HomDiffTest, ZeroElementTarget) {
  // The width-0 table has one cell (0^0 = 1) and every wider key space
  // has none.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  const RelationId h = schema->AddRelation("H", 0);
  const Structure empty_target(schema, 0);
  Structure with_h(schema, 0);
  with_h.AddFact(h, {});
  Structure nullary_source(schema, 0);
  nullary_source.AddFact(h, {});
  for (const Structure& to : {empty_target, with_h}) {
    ExpectClosedForm(Structure(schema, 0), to, BigInt(1));
    ExpectClosedForm(Structure(schema, 2), to, BigInt(0));
    ExpectClosedForm(DirectedPath(schema, 1), to, BigInt(0));
    ExpectClosedForm(SymmetricPath(schema, 2), to, BigInt(0));
    ExpectClosedForm(nullary_source, to, BigInt(to.NumFacts()));
  }
}

TEST(HomDiffTest, EnumerationVisitCountMatchesCount) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(31337);
  for (int iter = 0; iter < 20; ++iter) {
    Structure from = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    Structure to = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    std::int64_t visits = 0;
    EnumerateHoms(from, to, [&visits](const std::vector<Element>&) {
      ++visits;
      return true;
    });
    EXPECT_EQ(BigInt(visits), CountHoms(from, to))
        << "from=" << from.ToString() << " to=" << to.ToString();
  }
}

}  // namespace
}  // namespace bagdet
