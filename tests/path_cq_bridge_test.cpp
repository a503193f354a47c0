// Cross-validation between the two path-query semantics the library
// offers: the incidence-matrix evaluation (Definitions 16–17, Fact 18) and
// the generic CQ evaluation of the word's conjunctive-query form. The two
// take completely different code paths (BigInt matrix products vs.
// backtracking enumeration), so their agreement on random inputs is a
// strong correctness check for both.

#include <gtest/gtest.h>

#include "hom/hom.h"
#include "path/matrix_semantics.h"
#include "path/path_query.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(PathCqBridgeTest, ToConjunctiveQueryShape) {
  auto schema = std::make_shared<Schema>();
  PathQuery q = PathQuery::FromWord("ABA", schema);
  ConjunctiveQuery cq = q.ToConjunctiveQuery("route");
  EXPECT_EQ(cq.NumFreeVars(), 2u);
  EXPECT_EQ(cq.NumVars(), 4u);  // x, y and two internal positions.
  EXPECT_EQ(cq.NumAtoms(), 3u);
  EXPECT_EQ(cq.name(), "route");
}

TEST(PathCqBridgeTest, EmptyWordIsNotACq) {
  auto schema = std::make_shared<Schema>();
  PathQuery eps = PathQuery::FromWord("", schema);
  EXPECT_THROW(eps.ToConjunctiveQuery("eps"), std::invalid_argument);
}

TEST(PathCqBridgeTest, SingleLetterBridge) {
  auto schema = std::make_shared<Schema>();
  PathQuery q = PathQuery::FromWord("A", schema);
  ConjunctiveQuery cq = q.ToConjunctiveQuery("a");
  Structure d(schema);
  d.AddFact(*schema->Find("A"), {0, 1});
  d.AddFact(*schema->Find("A"), {0, 0});
  EXPECT_TRUE(AnswerBagsEqual(cq.Evaluate(d), EvaluatePathQuery(d, q)));
}

struct BridgeCase {
  std::uint64_t seed;
  std::string word;
  std::size_t domain;
};

class PathCqBridgeRandomTest : public ::testing::TestWithParam<BridgeCase> {};

TEST_P(PathCqBridgeRandomTest, MatrixAndCqAnswersAgree) {
  auto schema = std::make_shared<Schema>();
  PathQuery q = PathQuery::FromWord(GetParam().word, schema);
  ConjunctiveQuery cq = q.ToConjunctiveQuery("bridge");
  Rng rng(GetParam().seed);
  for (int iter = 0; iter < 10; ++iter) {
    Structure d = RandomStructure(schema, GetParam().domain, &rng, 1, 3);
    AnswerBag via_matrix = EvaluatePathQuery(d, q);
    AnswerBag via_cq = cq.Evaluate(d);
    EXPECT_TRUE(AnswerBagsEqual(via_matrix, via_cq))
        << "word=" << GetParam().word << " data=" << d.ToString();
    // The boolean reading also agrees with generic hom counting of the
    // frozen path body.
    EXPECT_EQ(CountPathHoms(d, q), CountHoms(q.FrozenBody(), d));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathCqBridgeRandomTest,
    ::testing::Values(BridgeCase{1, "A", 3}, BridgeCase{2, "AB", 3},
                      BridgeCase{3, "AA", 4}, BridgeCase{4, "ABA", 3},
                      BridgeCase{5, "ABBA", 3}, BridgeCase{6, "AABB", 4},
                      BridgeCase{7, "ABABA", 3}));

TEST(PathCqBridgeTest, RepeatedLettersShareRelation) {
  auto schema = std::make_shared<Schema>();
  PathQuery q = PathQuery::FromWord("AAA", schema);
  EXPECT_EQ(schema->NumRelations(), 1u);
  ConjunctiveQuery cq = q.ToConjunctiveQuery("aaa");
  // On a directed triangle the 3-step walks (i -> i+3 = i) land back home.
  Structure triangle(schema);
  for (Element i = 0; i < 3; ++i) {
    triangle.AddFact(0, {i, static_cast<Element>((i + 1) % 3)});
  }
  AnswerBag bag = cq.Evaluate(triangle);
  ASSERT_EQ(bag.size(), 3u);
  for (Element i = 0; i < 3; ++i) {
    EXPECT_EQ(bag.at({i, i}), BigInt(1));
  }
  EXPECT_TRUE(AnswerBagsEqual(bag, EvaluatePathQuery(triangle, q)));
}

}  // namespace
}  // namespace bagdet
