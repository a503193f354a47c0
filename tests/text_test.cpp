#include "structs/text.h"

#include <gtest/gtest.h>

#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(TextTest, ParseBasicFacts) {
  auto schema = std::make_shared<Schema>();
  Structure s = ParseStructure("E(0,1), E(1,2), P(0)", schema);
  EXPECT_EQ(schema->NumRelations(), 2u);
  EXPECT_EQ(s.NumFacts(), 3u);
  EXPECT_EQ(s.DomainSize(), 3u);
  EXPECT_TRUE(s.HasFact(*schema->Find("E"), {1, 2}));
  EXPECT_TRUE(s.HasFact(*schema->Find("P"), {0}));
}

TEST(TextTest, ParseNullaryAndNewlines) {
  auto schema = std::make_shared<Schema>();
  Structure s = ParseStructure("H()\nE(0,0)\n", schema);
  EXPECT_TRUE(s.HasFact(*schema->Find("H"), {}));
  EXPECT_EQ(s.DomainSize(), 1u);
}

TEST(TextTest, ParseDomainClauseAndComments) {
  auto schema = std::make_shared<Schema>();
  Structure s = ParseStructure(
      "# a comment line\n"
      "E(0,1)  # trailing comment\n"
      "domain 5\n",
      schema);
  EXPECT_EQ(s.DomainSize(), 5u);
  EXPECT_EQ(s.NumFacts(), 1u);
}

TEST(TextTest, ParseEmptyIsEmptyStructure) {
  auto schema = std::make_shared<Schema>();
  Structure s = ParseStructure("  # nothing\n", schema);
  EXPECT_TRUE(s.IsEmpty());
}

TEST(TextTest, ParseErrors) {
  auto schema = std::make_shared<Schema>();
  EXPECT_THROW(ParseStructure("E(0,", schema), std::invalid_argument);
  EXPECT_THROW(ParseStructure("E 0,1)", schema), std::invalid_argument);
  EXPECT_THROW(ParseStructure("E(x,1)", schema), std::invalid_argument);
  // Arity conflict across facts.
  EXPECT_THROW(ParseStructure("E(0,1), E(0)", schema), std::invalid_argument);
  // Out-of-range numbers: a domain whose size + 1 wraps, an element past
  // the 32-bit Element range, and a number past 2^64.
  EXPECT_THROW(ParseStructure("E(0,1), domain 18446744073709551615", schema),
               std::invalid_argument);
  EXPECT_THROW(ParseStructure("E(4294967296,1)", schema),
               std::invalid_argument);
  EXPECT_THROW(ParseStructure("E(18446744073709551617,1)", schema),
               std::invalid_argument);
}

TEST(TextTest, FormatRoundTripWithIsolatedElements) {
  auto schema = std::make_shared<Schema>();
  Structure s(schema, 0);
  schema->AddRelation("E", 2);
  s = Structure(schema, 4);  // One isolated element beyond the facts.
  s.AddFact(0, {0, 1});
  s.AddFact(0, {1, 2});
  std::string text = FormatStructure(s);
  EXPECT_NE(text.find("domain 4"), std::string::npos);
  auto schema2 = std::make_shared<Schema>();
  Structure back = ParseStructure(text, schema2);
  EXPECT_EQ(back.DomainSize(), 4u);
  EXPECT_EQ(back.NumFacts(), 2u);
}

TEST(TextTest, RandomRoundTrips) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  schema->AddRelation("P", 1);
  schema->AddRelation("H", 0);
  Rng rng(808);
  for (int iter = 0; iter < 30; ++iter) {
    Structure s = RandomStructure(schema, 1 + rng.Below(5), &rng);
    auto schema2 = std::make_shared<Schema>();
    Structure back = ParseStructure(FormatStructure(s), schema2);
    // Compare fact multisets via re-serialization under the same schema
    // ordering (relation ids may differ between the two schemas).
    EXPECT_EQ(FormatStructure(back), FormatStructure(s));
    EXPECT_EQ(back.DomainSize(), s.DomainSize());
    EXPECT_EQ(back.NumFacts(), s.NumFacts());
  }
}

}  // namespace
}  // namespace bagdet
