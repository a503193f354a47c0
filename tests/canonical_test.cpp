// Differential tests pinning the canonical-form layer to the ground truth:
// CanonicalKeyOf must agree with the reference backtracking isomorphism
// test (tests/reference/oracles.h, which shares no code with the labeling
// search) on every pair — the key is a *complete* invariant, unlike color
// refinement. StructurePool must intern exactly the isomorphism classes,
// and HomCache must return the same counts as uncached CountHoms while
// actually deduplicating repeated work.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/determinacy.h"
#include "core/distinguisher.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "reference/oracles.h"
#include "structs/canonical.h"
#include "structs/generator.h"
#include "structs/pool.h"
#include "structs/structure.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

std::shared_ptr<Schema> MixedSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("P", 1);
  schema->AddRelation("T", 3);
  return schema;
}

Structure Cycle(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
  }
  return s;
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

/// Flips one random potential fact of `s` (in or out).
Structure ToggleRandomFact(const Structure& s, Rng* rng) {
  Structure out(s.schema_ptr(), s.DomainSize());
  RelationId r =
      static_cast<RelationId>(rng->Below(s.schema().NumRelations()));
  Tuple target(s.schema().Arity(r));
  for (Element& e : target) {
    e = static_cast<Element>(rng->Below(s.DomainSize()));
  }
  for (RelationId rel = 0; rel < s.schema().NumRelations(); ++rel) {
    for (const Tuple& t : s.Facts(rel)) {
      if (rel == r && t == target) continue;  // Remove.
      out.AddFact(rel, t);
    }
  }
  if (!s.HasFact(r, target)) out.AddFact(r, target);  // Add.
  return out;
}

void ExpectKeyMatchesIsomorphism(const Structure& a, const Structure& b) {
  const bool iso = reference::IsIsomorphic(a, b);
  const bool keys_equal = CanonicalKeyOf(a) == CanonicalKeyOf(b);
  EXPECT_EQ(keys_equal, iso) << "a = " << a.ToString()
                             << "\nb = " << b.ToString();
}

TEST(CanonicalKeyTest, DifferentialAgainstIsIsomorphic) {
  Rng rng(2022);
  int pairs = 0;
  for (const auto& schema : {GraphSchema(), MixedSchema()}) {
    for (int trial = 0; trial < 60; ++trial) {
      std::size_t n = 2 + rng.Below(5);
      Structure a = RandomStructure(schema, n, &rng);
      // Permuted copies must collide.
      Structure p = PermutedCopy(a, &rng);
      ExpectKeyMatchesIsomorphism(a, p);
      EXPECT_EQ(CanonicalKeyOf(a), CanonicalKeyOf(p));
      ++pairs;
      // Near-isomorphic pairs: a permuted copy with one fact toggled.
      ExpectKeyMatchesIsomorphism(a, ToggleRandomFact(p, &rng));
      ++pairs;
      // Independent random structures of the same size.
      ExpectKeyMatchesIsomorphism(a, RandomStructure(schema, n, &rng));
      ++pairs;
    }
  }
  EXPECT_GE(pairs, 200);
}

TEST(CanonicalKeyTest, SeparatesWLEquivalentPairs) {
  auto schema = GraphSchema();
  // The classic 1-WL failure: C6 vs C3 + C3 have identical stable color
  // histograms but are non-isomorphic. The complete canonical form must
  // separate them.
  Structure c6 = Cycle(schema, 6);
  Structure c3_c3 = DisjointUnion(Cycle(schema, 3), Cycle(schema, 3));
  ASSERT_FALSE(reference::ColorRefinementDistinguishes(c6, c3_c3));
  ASSERT_FALSE(reference::IsIsomorphic(c6, c3_c3));
  EXPECT_NE(CanonicalKeyOf(c6), CanonicalKeyOf(c3_c3));
}

TEST(CanonicalKeyTest, ComponentMultisetSemantics) {
  auto schema = GraphSchema();
  Structure c3 = Cycle(schema, 3);
  Structure c5 = Cycle(schema, 5);
  // Order of components must not matter...
  EXPECT_EQ(CanonicalKeyOf(DisjointUnion(c3, c5)),
            CanonicalKeyOf(DisjointUnion(c5, c3)));
  // ...but multiplicity must.
  EXPECT_NE(CanonicalKeyOf(c3), CanonicalKeyOf(DisjointUnion(c3, c3)));
  // Isolated elements count too.
  Structure with_isolated = c3;
  with_isolated.AddElement();
  EXPECT_NE(CanonicalKeyOf(c3), CanonicalKeyOf(with_isolated));
}

TEST(CanonicalKeyTest, NullaryFactsAndSchemasAreDistinguished) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("Flag", 0);
  Structure plain(schema, 1);
  plain.AddFact(0, {0, 0});
  Structure flagged = plain;
  flagged.AddFact(1, {});
  EXPECT_NE(CanonicalKeyOf(plain), CanonicalKeyOf(flagged));
  // Same fact shape over a different schema must not collide.
  Structure other(GraphSchema(), 1);
  other.AddFact(0, {0, 0});
  EXPECT_NE(CanonicalKeyOf(plain), CanonicalKeyOf(other));
}

TEST(CanonicalKeyTest, HandlesAutomorphismRichComponents) {
  // A clique's search tree is factorial without automorphism pruning; the
  // transposition pruning must collapse it (this test hangs, not fails,
  // on a regression).
  Rng rng(5);
  auto schema = GraphSchema();
  auto clique = [&](Element n) {
    Structure s(schema, n);
    for (Element i = 0; i < n; ++i) {
      for (Element j = 0; j < n; ++j) {
        if (i != j) s.AddFact(0, {i, j});
      }
    }
    return s;
  };
  Structure k9 = clique(9);
  EXPECT_EQ(CanonicalKeyOf(k9), CanonicalKeyOf(PermutedCopy(k9, &rng)));
  // Near-isomorphic: K9 minus one edge is not isomorphic to K9.
  Structure almost = ToggleRandomFact(k9, &rng);
  ASSERT_FALSE(reference::IsIsomorphic(k9, almost));
  EXPECT_NE(CanonicalKeyOf(k9), CanonicalKeyOf(almost));
}

TEST(CanonicalKeyTest, StableUnderSchemaGrowth) {
  // Schemas are shared and append-only: a parser grows one schema across
  // rules, so structures canonicalized early must still compare equal to
  // structures canonicalized after the schema gained relations (the
  // certificate is schema-agnostic; the digest binds at key-assembly time).
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Structure early(schema, 2);
  early.AddFact(0, {0, 1});
  CanonicalKey before_growth = CanonicalKeyOf(early);  // Caches certificate.
  schema->AddRelation("Later", 1);
  Structure late(schema, 2);
  late.AddFact(0, {0, 1});
  EXPECT_EQ(CanonicalKeyOf(early), CanonicalKeyOf(late));
  // The digest tracks the current schema contents.
  EXPECT_NE(CanonicalKeyOf(early), before_growth);
}

TEST(StructurePoolTest, InternsIsomorphismClasses) {
  Rng rng(7);
  auto schema = GraphSchema();
  StructurePool pool;
  Structure a = RandomConnectedStructure(schema, 5, &rng);
  StructureRef ref = pool.Intern(a);
  // Every permuted copy lands on the same ref without growing the pool.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pool.Intern(PermutedCopy(a, &rng)), ref);
  }
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(reference::IsIsomorphic(pool.At(ref), a));
  // Non-isomorphic structures get fresh refs; Find sees only interned ones.
  Structure c4 = Cycle(schema, 4);
  EXPECT_EQ(pool.Find(c4), kInvalidStructureRef);
  StructureRef c4_ref = pool.Intern(c4);
  EXPECT_NE(c4_ref, ref);
  EXPECT_EQ(pool.Find(Cycle(schema, 4)), c4_ref);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(HomCacheTest, CountsMatchUncachedCounting) {
  Rng rng(99);
  for (const auto& schema : {GraphSchema(), MixedSchema()}) {
    HomCache cache;
    for (int trial = 0; trial < 25; ++trial) {
      Structure from = RandomStructure(schema, 1 + rng.Below(4), &rng);
      Structure to = RandomStructure(schema, 1 + rng.Below(5), &rng);
      EXPECT_EQ(cache.Count(from, to), CountHoms(from, to))
          << "from = " << from.ToString() << "\nto = " << to.ToString();
    }
  }
}

TEST(HomCacheTest, DeduplicatesRepeatedAndIsomorphicQueries) {
  Rng rng(3);
  auto schema = GraphSchema();
  HomCache cache;
  Structure from = Cycle(schema, 3);
  Structure to = RandomStructure(schema, 5, &rng);
  BigInt first = cache.Count(from, to);
  HomCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.misses, 1u);
  // The same pair again, and an isomorphic relabeling of it: hits only.
  EXPECT_EQ(cache.Count(from, to), first);
  EXPECT_EQ(cache.Count(PermutedCopy(from, &rng), PermutedCopy(to, &rng)),
            first);
  HomCache::Stats after = cache.stats();
  EXPECT_EQ(after.misses, 1u);
  EXPECT_EQ(after.hits, 2u);
}

TEST(HomCacheTest, CountLoopMatchesUncachedCounts) {
  Rng rng(41);
  auto schema = MixedSchema();
  HomCache cache;
  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  for (int i = 0; i < 12; ++i) {
    StructureRef from = cache.pool().Intern(
        RandomConnectedStructure(schema, 2 + rng.Below(3), &rng));
    StructureRef to = cache.pool().Intern(RandomStructure(schema, 4, &rng));
    pairs.emplace_back(from, to);
  }
  pairs.push_back(pairs.front());  // Duplicates must be consistent.
  for (const auto& [from, to] : pairs) {
    EXPECT_EQ(cache.Count(from, to),
              CountHoms(cache.pool().At(from), cache.pool().At(to)));
  }
  EXPECT_GE(cache.stats().hits, 1u);  // The duplicate was served memoized.
}

TEST(HomCacheTest, DisconnectedSourcesUseComponentEntries) {
  Rng rng(11);
  auto schema = GraphSchema();
  HomCache cache;
  Structure c3 = Cycle(schema, 3);
  Structure c4 = Cycle(schema, 4);
  Structure to = RandomStructure(schema, 5, &rng);
  // Warm the component-level entries.
  BigInt a = cache.Count(c3, to);
  BigInt b = cache.Count(c4, to);
  HomCache::Stats warm = cache.stats();
  // The union's count is the product of the cached component counts and
  // must not recount anything.
  EXPECT_EQ(cache.Count(DisjointUnion(c3, c4), to), a * b);
  EXPECT_EQ(cache.stats().misses, warm.misses);
}

TEST(InducedSubstructureGuardTest, RejectsDomainsBeyondMaskWidth) {
  auto schema = GraphSchema();
  Structure big(schema, 65);
  EXPECT_THROW(InducedSubstructure(big, ~0ull), std::invalid_argument);
  // 64 elements is exactly addressable and must still work.
  Structure exact(schema, 64);
  exact.AddFact(0, {0, 63});
  Structure kept = InducedSubstructure(exact, ~0ull);
  EXPECT_EQ(kept.DomainSize(), 64u);
  EXPECT_TRUE(kept.HasFact(0, {0, 63}));
}

TEST(ExponentGuardTest, PathologicalWitnessExponentsFailLoudly) {
  // A witness whose common denominator exceeds int64 must throw instead of
  // wrapping through the uint64 exponent casts.
  DeterminacyWitness witness;
  witness.view_indices = {0};
  BigInt huge = BigInt::Pow(BigInt(2), 80);
  witness.exponents = Vec{Rational(BigInt(1), huge)};
  EXPECT_THROW(AnswerFromViewCounts(witness, {BigInt(2)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bagdet
