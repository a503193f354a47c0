#include "structs/structure.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "reference/oracles.h"
#include "structs/canonical.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

std::shared_ptr<Schema> TwoColorSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("G", 2);
  return schema;
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  RelationId e = schema.AddRelation("E", 2);
  RelationId p = schema.AddRelation("P", 1);
  EXPECT_EQ(schema.NumRelations(), 2u);
  EXPECT_EQ(schema.Name(e), "E");
  EXPECT_EQ(schema.Arity(p), 1u);
  EXPECT_EQ(schema.Find("E"), std::optional<RelationId>(e));
  EXPECT_FALSE(schema.Find("Z").has_value());
}

TEST(SchemaTest, RedeclareSameArityIsIdempotent) {
  Schema schema;
  RelationId e1 = schema.AddRelation("E", 2);
  RelationId e2 = schema.AddRelation("E", 2);
  EXPECT_EQ(e1, e2);
  EXPECT_THROW(schema.AddRelation("E", 3), std::invalid_argument);
}

TEST(SchemaTest, LookupSurvivesGrowthOfShortNames) {
  // Short names live inside their std::string, so they move whenever the
  // name list reallocates; lookups must not hold views into them.
  Schema schema;
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(schema.AddRelation("R" + std::to_string(i), i % 4), i);
  }
  for (std::size_t i = 0; i < 200; ++i) {
    const std::string name = "R" + std::to_string(i);
    EXPECT_EQ(schema.Find(name), std::optional<RelationId>(i));
    EXPECT_EQ(schema.AddRelation(name, i % 4), i);
  }
  // A view that is not a whole string: "R1" inside "R12".
  EXPECT_EQ(schema.Find(std::string_view("R12").substr(0, 2)),
            std::optional<RelationId>(1));
  EXPECT_FALSE(schema.Find("R200").has_value());
  EXPECT_FALSE(schema.Find("").has_value());
  try {
    schema.AddRelation(std::string_view("R7x").substr(0, 2), 0);
    ADD_FAILURE() << "redeclaration accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "Schema: relation 'R7' redeclared with different arity");
  }
}

TEST(StructureTest, AddFactDeduplicatesAndSorts) {
  auto schema = GraphSchema();
  Structure s(schema);
  s.AddFact(0, {1, 0});
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 0});  // Duplicate.
  EXPECT_EQ(s.NumFacts(), 2u);
  EXPECT_EQ(s.Facts(0)[0], (Tuple{0, 1}));
  EXPECT_EQ(s.Facts(0)[1], (Tuple{1, 0}));
  EXPECT_EQ(s.DomainSize(), 2u);
  EXPECT_TRUE(s.HasFact(0, {0, 1}));
  EXPECT_FALSE(s.HasFact(0, {0, 0}));
}

TEST(StructureTest, EqualityIgnoresRelationsAddedAfterConstruction) {
  auto schema = GraphSchema();
  Structure before(schema, 2);
  before.AddFact(0, {0, 1});
  schema->AddRelation("P", 1);
  Structure after(schema, 2);
  after.AddFact(0, {0, 1});
  EXPECT_EQ(before, after);
  after.AddFact(1, {0});
  EXPECT_NE(before, after);
}

/// Builds a structure by AddFact, one fact at a time in relation order, or
/// by FromFacts, and reports the result or the error text.
std::pair<Structure, std::string> Build(bool batch,
                                        const std::shared_ptr<Schema>& schema,
                                        std::size_t domain,
                                        const std::vector<std::vector<Tuple>>& facts) {
  try {
    if (batch) return {Structure::FromFacts(schema, domain, facts), ""};
    Structure s(schema, domain);
    for (RelationId r = 0; r < facts.size(); ++r) {
      for (const Tuple& t : facts[r]) s.AddFact(r, t);
    }
    return {s, ""};
  } catch (const std::invalid_argument& e) {
    return {Structure(), e.what()};
  }
}

TEST(FromFactsTest, MatchesAddFactOneAtATime) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("T", 3);
  Rng rng(0xfac75);
  int errors = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t domain = rng.Below(4);  // 0 is the empty domain
    // Now and then one list past the schema: an unknown relation id.
    std::vector<std::vector<Tuple>> facts(schema->NumRelations() +
                                          (rng.Below(10) == 0 ? 1 : 0));
    for (RelationId r = 0; r < facts.size(); ++r) {
      const std::size_t count = rng.Below(7);
      for (std::size_t i = 0; i < count; ++i) {
        if (!facts[r].empty() && rng.Below(3) == 0) {
          facts[r].push_back(facts[r][rng.Below(facts[r].size())]);
          continue;
        }
        std::size_t arity =
            r < schema->NumRelations() ? schema->Arity(r) : 1;
        if (rng.Below(40) == 0) arity += 1;  // an arity mismatch
        Tuple t(arity);
        for (Element& e : t) e = static_cast<Element>(rng.Below(domain + 3));
        facts[r].push_back(std::move(t));
      }
    }
    const auto [want, want_error] = Build(false, schema, domain, facts);
    const auto [got, got_error] = Build(true, schema, domain, facts);
    EXPECT_EQ(got_error, want_error);
    if (want_error.empty()) {
      EXPECT_EQ(got, want);
    } else {
      ++errors;
    }
  }
  // Both outcomes occur.
  EXPECT_GT(errors, 50);
  EXPECT_LT(errors, 1000);
}

TEST(StructureTest, ArityMismatchThrows) {
  auto schema = GraphSchema();
  Structure s(schema);
  EXPECT_THROW(s.AddFact(0, {0}), std::invalid_argument);
  EXPECT_THROW(s.AddFact(7, {0, 1}), std::invalid_argument);
}

TEST(StructureTest, IsConnectedCases) {
  auto schema = GraphSchema();
  Structure path(schema);
  path.AddFact(0, {0, 1});
  path.AddFact(0, {1, 2});
  EXPECT_TRUE(path.IsConnected());

  Structure two_edges(schema);
  two_edges.AddFact(0, {0, 1});
  two_edges.AddFact(0, {2, 3});
  EXPECT_FALSE(two_edges.IsConnected());

  Structure empty(schema);
  EXPECT_FALSE(empty.IsConnected());

  Structure lone(schema, 1);
  EXPECT_TRUE(lone.IsConnected());

  Structure with_isolated(schema, 3);
  with_isolated.AddFact(0, {0, 1});
  EXPECT_FALSE(with_isolated.IsConnected());
}

TEST(StructureTest, NullaryFactConnectivity) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  Structure h(schema);
  h.AddFact(0, {});
  EXPECT_TRUE(h.IsConnected());  // A single nullary fact.
  EXPECT_EQ(h.DomainSize(), 0u);
  EXPECT_EQ(h.NumFacts(), 1u);
}

TEST(StructureTest, DisjointUnionOffsetsElements) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  Structure b(schema);
  b.AddFact(0, {0, 0});
  Structure u = DisjointUnion(a, b);
  EXPECT_EQ(u.DomainSize(), 3u);
  EXPECT_TRUE(u.HasFact(0, {0, 1}));
  EXPECT_TRUE(u.HasFact(0, {2, 2}));
  EXPECT_EQ(u.NumFacts(), 2u);
}

TEST(StructureTest, ProductMatchesDefinition) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});  // One edge.
  Structure b(schema);
  b.AddFact(0, {0, 1});
  b.AddFact(0, {1, 0});  // A 2-cycle.
  Structure p = Product(a, b);
  EXPECT_EQ(p.DomainSize(), 4u);
  EXPECT_EQ(p.NumFacts(), 2u);
  // <0,0> -> <1,1> encoded as 0*2+0=0 -> 1*2+1=3.
  EXPECT_TRUE(p.HasFact(0, {0, 3}));
  EXPECT_TRUE(p.HasFact(0, {1, 2}));
}

TEST(StructureTest, ScalarMultipleAndEmpty) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  Structure three = ScalarMultiple(3, a);
  EXPECT_EQ(three.DomainSize(), 6u);
  EXPECT_EQ(three.NumFacts(), 3u);
  Structure zero = ScalarMultiple(0, a);
  EXPECT_TRUE(zero.IsEmpty());
}

TEST(StructureTest, IteratedProductPowerZeroIsAllLoops) {
  auto schema = TwoColorSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  Structure p0 = IteratedProduct(a, 0);
  EXPECT_EQ(p0.DomainSize(), 1u);
  EXPECT_TRUE(p0.HasFact(0, {0, 0}));
  EXPECT_TRUE(p0.HasFact(1, {0, 0}));  // Loops of ALL relation types.
  Structure p1 = IteratedProduct(a, 1);
  EXPECT_EQ(p1.DomainSize(), 1u * a.DomainSize());
  EXPECT_EQ(p1.NumFacts(), 1u);
  Structure p2 = IteratedProduct(a, 2);
  EXPECT_EQ(p2.DomainSize(), 4u);
}

TEST(StructureTest, MapDomainQuotient) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  a.AddFact(0, {1, 2});
  // Merge 0 and 2.
  Structure q = a.MapDomain({0, 1, 0}, 2);
  EXPECT_EQ(q.DomainSize(), 2u);
  EXPECT_TRUE(q.HasFact(0, {0, 1}));
  EXPECT_TRUE(q.HasFact(0, {1, 0}));
}

/// An owned copy of s.Components().
std::vector<Structure> OwnedComponents(const Structure& s) {
  const ComponentRange components = s.Components();
  return std::vector<Structure>(components.begin(), components.end());
}

TEST(ConnectedComponentsTest, SplitsAndRenames) {
  auto schema = GraphSchema();
  Structure s(schema, 5);
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 2});
  s.AddFact(0, {3, 3});
  // Element 4 is isolated.
  std::vector<Structure> components = OwnedComponents(s);
  ASSERT_EQ(components.size(), 3u);
  std::size_t sizes[3] = {components[0].DomainSize(),
                          components[1].DomainSize(),
                          components[2].DomainSize()};
  std::size_t total = sizes[0] + sizes[1] + sizes[2];
  EXPECT_EQ(total, 5u);
  std::size_t facts = 0;
  for (const auto& c : components) facts += c.NumFacts();
  EXPECT_EQ(facts, 3u);
}

TEST(ConnectedComponentsTest, NullaryFactsAreOwnComponents) {
  auto schema = std::make_shared<Schema>();
  RelationId h = schema->AddRelation("H", 0);
  RelationId e = schema->AddRelation("E", 2);
  Structure s(schema);
  s.AddFact(h, {});
  s.AddFact(e, {0, 1});
  std::vector<Structure> components = OwnedComponents(s);
  ASSERT_EQ(components.size(), 2u);
  int nullary = 0;
  for (const auto& c : components) {
    if (c.DomainSize() == 0) ++nullary;
  }
  EXPECT_EQ(nullary, 1);
}

TEST(ConnectedComponentsTest, EmptyStructureHasNone) {
  EXPECT_TRUE(OwnedComponents(Structure(GraphSchema())).empty());
}

/// Graph edges plus a nullary relation H: E(0,1), E(1,2), E(4,3), E(5,5),
/// H(), with element 6 isolated — five components of four kinds.
Structure MixedStructure() {
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  RelationId h = schema->AddRelation("H", 0);
  Structure s(schema, 7);
  s.AddFact(e, {0, 1});
  s.AddFact(e, {1, 2});
  s.AddFact(e, {4, 3});
  s.AddFact(e, {5, 5});
  s.AddFact(h, {});
  return s;
}

/// Checks s.Components() against a decomposition of a cache-free rebuild
/// of s, and against the definition: connected pieces whose disjoint union
/// is isomorphic to s.
void ExpectComponentsOf(const Structure& s, std::size_t expected_count) {
  const ComponentRange components = s.Components();
  ASSERT_EQ(components.size(), expected_count);
  std::vector<Element> identity(s.DomainSize());
  for (std::size_t e = 0; e < identity.size(); ++e) {
    identity[e] = static_cast<Element>(e);
  }
  const std::vector<Structure> fresh =
      OwnedComponents(s.MapDomain(identity, s.DomainSize()));
  ASSERT_EQ(fresh.size(), components.size());
  Structure sum(s.schema_ptr());
  for (std::size_t i = 0; i < components.size(); ++i) {
    EXPECT_EQ(components[i], fresh[i]) << i;
    EXPECT_TRUE(components[i].IsConnected()) << i;
    sum = DisjointUnion(sum, components[i]);
  }
  EXPECT_TRUE(reference::IsIsomorphic(sum, s));
  EXPECT_EQ(s.IsConnected(), expected_count == 1);
}

TEST(ComponentsTest, MatchesFreshDecomposition) {
  Structure mixed = MixedStructure();
  ExpectComponentsOf(mixed, 5);
  // Repeated reads hit the cache: same storage, same contents.
  EXPECT_EQ(&mixed.Components()[0], &mixed.Components()[0]);
  ExpectComponentsOf(mixed, 5);

  ExpectComponentsOf(Structure(GraphSchema()), 0);
  ExpectComponentsOf(Structure(GraphSchema(), 3), 3);  // Isolated elements.

  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  Structure lone_nullary(schema);
  lone_nullary.AddFact(0, {});
  ExpectComponentsOf(lone_nullary, 1);
}

TEST(ComponentsTest, ConnectedStructureIsItsOwnComponent) {
  auto schema = GraphSchema();
  Structure path(schema);
  path.AddFact(0, {0, 1});
  path.AddFact(0, {1, 2});
  ASSERT_EQ(path.Components().size(), 1u);
  EXPECT_EQ(&path.Components()[0], &path);
  const Structure copy = path;
  ASSERT_EQ(copy.Components().size(), 1u);
  EXPECT_EQ(&copy.Components()[0], &copy);
  // Pieces of a decomposition are connected, hence their own components.
  Structure mixed = MixedStructure();
  for (const Structure& piece : mixed.Components()) {
    ASSERT_EQ(piece.Components().size(), 1u);
    EXPECT_EQ(&piece.Components()[0], &piece);
  }
}

TEST(ComponentsTest, MutationInvalidatesTheCache) {
  auto schema = GraphSchema();
  Structure s(schema);
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 2});
  ExpectComponentsOf(s, 1);
  s.AddElement();  // Element 3, isolated.
  ExpectComponentsOf(s, 2);
  s.EnsureDomain(5);  // Element 4, isolated.
  ExpectComponentsOf(s, 3);
  s.AddFact(0, {3, 4});
  ExpectComponentsOf(s, 2);

  // No-op mutations keep the cached decomposition.
  const Structure* cached = &s.Components()[0];
  s.EnsureDomain(2);
  s.AddFact(0, {3, 4});
  EXPECT_EQ(&s.Components()[0], cached);

  s.AddFact(0, {2, 3});
  ExpectComponentsOf(s, 1);
}

TEST(ComponentsTest, CopiesShareTheCacheUntilEitherSideMutates) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  a.AddFact(0, {2, 3});
  const Structure* cached = &a.Components()[0];

  Structure b = a;
  EXPECT_EQ(&b.Components()[0], cached);
  b.AddFact(0, {1, 2});  // Mutating the copy leaves the original's cache.
  ExpectComponentsOf(b, 1);
  EXPECT_EQ(&a.Components()[0], cached);
  ExpectComponentsOf(a, 2);

  Structure c = a;
  a.AddElement();  // Mutating the original leaves the copy's cache.
  EXPECT_EQ(&c.Components()[0], cached);
  ExpectComponentsOf(c, 2);
  ExpectComponentsOf(a, 3);
}

TEST(ComponentsTest, CanonicalCertificatesAlignWithComponents) {
  auto schema = GraphSchema();
  Structure s(schema, 9);
  // A loop, a 2-edge path, a 3-cycle and an edge with a loop at one end.
  s.AddFact(0, {8, 8});
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 2});
  s.AddFact(0, {3, 4});
  s.AddFact(0, {4, 5});
  s.AddFact(0, {5, 3});
  s.AddFact(0, {7, 6});
  s.AddFact(0, {6, 6});
  for (const Structure& t : {s, MixedStructure()}) {
    const StructureCanonicalData data = ComputeCanonicalData(t);
    const ComponentRange components = t.Components();
    ASSERT_EQ(data.component_certificates.size(), components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
      EXPECT_EQ(data.component_certificates[i],
                ComponentCertificate(components[i]))
          << i;
    }
  }
}

TEST(IsomorphismTest, DetectsRenamedCopies) {
  auto schema = GraphSchema();
  Structure a(schema);
  a.AddFact(0, {0, 1});
  a.AddFact(0, {1, 2});
  Structure b(schema);
  b.AddFact(0, {2, 0});
  b.AddFact(0, {0, 1});
  EXPECT_TRUE(reference::IsIsomorphic(a, b));
}

TEST(IsomorphismTest, DistinguishesOrientation) {
  auto schema = GraphSchema();
  // Out-star vs in-star on 3 elements.
  Structure out(schema);
  out.AddFact(0, {0, 1});
  out.AddFact(0, {0, 2});
  Structure in(schema);
  in.AddFact(0, {1, 0});
  in.AddFact(0, {2, 0});
  EXPECT_FALSE(reference::IsIsomorphic(out, in));
}

TEST(IsomorphismTest, Figure1StructuresAreNonIsomorphic) {
  // The paper's Figure 1: w2 = w1 plus green edges; same red skeleton.
  auto schema = TwoColorSchema();
  Structure w1(schema);
  w1.AddFact(0, {0, 1});
  Structure w2(schema);
  w2.AddFact(0, {0, 1});
  w2.AddFact(1, {0, 1});
  EXPECT_FALSE(reference::IsIsomorphic(w1, w2));
  EXPECT_TRUE(reference::IsIsomorphic(w1, w1));
}

TEST(IsomorphismTest, RegularNonIsomorphicPair) {
  // 6-cycle vs two 3-cycles: same degree sequence, non-isomorphic.
  auto schema = GraphSchema();
  Structure c6(schema);
  for (Element i = 0; i < 6; ++i) c6.AddFact(0, {i, static_cast<Element>((i + 1) % 6)});
  Structure c3c3(schema);
  for (Element i = 0; i < 3; ++i) c3c3.AddFact(0, {i, static_cast<Element>((i + 1) % 3)});
  for (Element i = 3; i < 6; ++i) {
    c3c3.AddFact(0, {i, static_cast<Element>(3 + (i - 3 + 1) % 3)});
  }
  EXPECT_FALSE(reference::IsIsomorphic(c6, c3c3));
}

TEST(IsomorphismTest, RandomRelabelingsAlwaysIsomorphic) {
  auto schema = TwoColorSchema();
  Rng rng(99);
  for (int iter = 0; iter < 25; ++iter) {
    std::size_t n = 1 + rng.Below(6);
    Structure a = RandomStructure(schema, n, &rng);
    // Random permutation.
    std::vector<Element> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Below(i)]);
    }
    Structure b = a.MapDomain(perm, n);
    EXPECT_TRUE(reference::IsIsomorphic(a, b));
  }
}

TEST(GeneratorTest, EnumerateStructuresCountsAllSubsets) {
  auto schema = GraphSchema();
  int count = 0;
  EnumerateStructures(schema, 1, [&](const Structure&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);  // Loop present or absent.
  count = 0;
  EnumerateStructures(schema, 2, [&](const Structure&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 16);  // 2^(2*2).
}

TEST(GeneratorTest, EnumerateStopsEarly) {
  auto schema = GraphSchema();
  int count = 0;
  bool completed = EnumerateStructures(schema, 1, [&](const Structure&) {
    ++count;
    return false;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 1);
}

TEST(GeneratorTest, EnumerateRefusesHugeSpaces) {
  auto schema = GraphSchema();
  EXPECT_THROW(
      EnumerateStructures(schema, 6, [](const Structure&) { return true; }),
      std::invalid_argument);
}

TEST(GeneratorTest, RandomConnectedIsConnected) {
  auto schema = GraphSchema();
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    Structure s = RandomConnectedStructure(schema, 1 + rng.Below(5), &rng);
    EXPECT_TRUE(s.IsConnected());
  }
}

TEST(GeneratorTest, CountPotentialFacts) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  EXPECT_EQ(CountPotentialFacts(*schema, 3), 1u + 3u + 9u);
}

}  // namespace
}  // namespace bagdet
