#include "query/cq.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "query/parser.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(ParserTest, ParsesBooleanRule) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), S(y,z)");
  EXPECT_EQ(q.name(), "q");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_EQ(q.NumVars(), 3u);
  EXPECT_EQ(q.NumAtoms(), 2u);
  EXPECT_EQ(q.schema().NumRelations(), 2u);
  EXPECT_EQ(q.FrozenBody().NumFacts(), 2u);
}

TEST(ParserTest, ParsesFreeVariables) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("v(x, y) :- R(x,z), R(z,y)");
  EXPECT_EQ(q.NumFreeVars(), 2u);
  EXPECT_EQ(q.VarName(0), "x");
  EXPECT_EQ(q.VarName(1), "y");
  EXPECT_FALSE(q.IsBoolean());
}

TEST(ParserTest, HeadWithoutParensIsBoolean) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("ok :- R(a,b)");
  EXPECT_TRUE(q.IsBoolean());
}

TEST(ParserTest, NullaryAtomsAndTrue) {
  QueryParser parser;
  ConjunctiveQuery h = parser.ParseRule("q() :- H()");
  EXPECT_EQ(h.schema().Arity(*h.schema().Find("H")), 0u);
  EXPECT_EQ(h.FrozenBody().DomainSize(), 0u);
  ConjunctiveQuery t = parser.ParseRule("t() :- true");
  EXPECT_EQ(t.NumAtoms(), 0u);
}

TEST(ParserTest, TrueIsTheEmptyBodyOnlyAsAWholeName) {
  QueryParser parser;
  ConjunctiveQuery edge = parser.ParseRule("q() :- true_edge(x,y)");
  EXPECT_EQ(edge.NumAtoms(), 1u);
  EXPECT_EQ(edge.ToString(), "q() :- true_edge(x,y)");
  ConjunctiveQuery unary = parser.ParseRule("q() :- trueR(x)");
  EXPECT_EQ(unary.ToString(), "q() :- trueR(x)");
  EXPECT_EQ(parser.ParseRule("q() :- true").NumAtoms(), 0u);
  EXPECT_EQ(parser.ParseRule("q() :- true .").NumAtoms(), 0u);
  try {
    parser.ParseRule("q() :- true(x)");
    ADD_FAILURE() << "true(x) parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "parse error: trailing input in: q() :- true(x)");
  }
}

TEST(ParserTest, VariablesAreNumberedInFirstOccurrenceOrder) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(y) :- R(x,y), S(z,x), R(y,w)");
  ASSERT_EQ(q.NumVars(), 4u);
  EXPECT_EQ(q.VarName(0), "y");
  EXPECT_EQ(q.VarName(1), "x");
  EXPECT_EQ(q.VarName(2), "z");
  EXPECT_EQ(q.VarName(3), "w");
  EXPECT_TRUE(q.FrozenBody().HasFact(0, {1, 0}));
  EXPECT_TRUE(q.FrozenBody().HasFact(1, {2, 1}));

  // Enough variables to grow the interning table several times; every
  // repeated name must resolve to its first id.
  std::string rule = "p() :- ";
  for (int i = 0; i < 300; ++i) {
    if (i != 0) rule += ", ";
    rule += "R(v" + std::to_string(i) + ",v" + std::to_string(i / 2) + ")";
  }
  ConjunctiveQuery p = parser.ParseRule(rule);
  EXPECT_EQ(p.NumVars(), 300u);
  EXPECT_EQ(p.ToString(), rule);
}

TEST(ParserTest, RejectsMalformedInputWithPinnedTexts) {
  const std::pair<const char*, const char*> cases[] = {
      {"q() R(x,y)", "parse error: expected ':-' at position 4 in: q() R(x,y)"},
      {"q() :- R(x,y", "parse error: expected ')' at position 12 in: q() :- R(x,y"},
      {":- R(x,y)", "parse error: expected a name at position 0 in: :- R(x,y)"},
      {"q() :- R(x,y) garbage",
       "parse error: trailing input in: q() :- R(x,y) garbage"},
      {"q() :- ", "parse error: expected a name at position 7 in: q() :- "},
      {"q() :- R x", "parse error: expected '(' at position 9 in: q() :- R x"},
      {"q(x :- R(x)", "parse error: expected ')' at position 4 in: q(x :- R(x)"},
      {"q() :- R(x,)",
       "parse error: expected a name at position 11 in: q() :- R(x,)"},
      {"q() :- truex", "parse error: expected '(' at position 12 in: q() :- truex"},
      {"q() :- R(x), R(x,y)",
       "Schema: relation 'R' redeclared with different arity"},
  };
  for (const auto& [input, message] : cases) {
    QueryParser parser;
    try {
      parser.ParseRule(input);
      ADD_FAILURE() << "parsed: " << input;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
}

TEST(ParserTest, FailedRuleKeepsOnlyTheRelationsOfItsClosedAtoms) {
  QueryParser parser;
  EXPECT_THROW(parser.ParseRule("q() :- R(x,y), S(x"), std::invalid_argument);
  EXPECT_TRUE(parser.schema()->Find("R").has_value());
  EXPECT_FALSE(parser.schema()->Find("S").has_value());
  // The next rule starts from clean scratch.
  ConjunctiveQuery q = parser.ParseRule("q(a) :- S(a), R(a,b)");
  EXPECT_EQ(q.ToString(), "q(a) :- S(a), R(a,b)");
  EXPECT_EQ(q.NumVars(), 2u);
}

TEST(ParserTest, SharedSchemaAccumulates) {
  QueryParser parser;
  parser.ParseRule("a() :- R(x,y)");
  parser.ParseRule("b() :- S(x), R(x,x)");
  EXPECT_EQ(parser.schema()->NumRelations(), 2u);
  EXPECT_THROW(parser.ParseRule("c() :- R(x)"), std::invalid_argument);
}

TEST(ParserTest, ProgramSkipsCommentsAndBlankLines) {
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(
      "# a comment\n"
      "q() :- R(x,y)\n"
      "\n"
      "v() :- R(x,x)  # trailing comment\n");
  EXPECT_EQ(rules.size(), 2u);
}

TEST(ParserTest, UcqProgramGroupsByName) {
  // A UCQ program is a rule list whose consecutive rules with one head
  // name form one union.
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(
      "v() :- P(x)\n"
      "v() :- R(x)\n"
      "w() :- P(x), R(x)\n");
  std::vector<UnionQuery> ucqs;
  for (std::size_t i = 0, j = 0; i < rules.size(); i = j) {
    while (j < rules.size() && rules[j].name() == rules[i].name()) ++j;
    ucqs.emplace_back(rules[i].name(),
                      std::vector<ConjunctiveQuery>(rules.begin() + i,
                                                    rules.begin() + j));
  }
  ASSERT_EQ(ucqs.size(), 2u);
  EXPECT_EQ(ucqs[0].name(), "v");
  EXPECT_EQ(ucqs[0].disjuncts().size(), 2u);
  EXPECT_EQ(ucqs[1].disjuncts().size(), 1u);
}

/// Reparses `q.ToString()` with the parser that produced q (so with the
/// same schema) and checks that printing and the frozen body are fixed.
void ExpectRoundTrip(QueryParser& parser, const ConjunctiveQuery& q) {
  const std::string text = q.ToString();
  SCOPED_TRACE(text);
  ConjunctiveQuery back = parser.ParseRule(text);
  EXPECT_EQ(back.ToString(), text);
  EXPECT_EQ(back.FrozenBody(), q.FrozenBody());
  EXPECT_EQ(back.NumFreeVars(), q.NumFreeVars());
}

TEST(RoundTripTest, PaperExampleRules) {
  // One parser per example: Examples 2 and 3 give R different arities.
  const std::vector<std::vector<const char*>> examples = {
      // Example 2.
      {"q()  :- P(u,x), R(x,y), S(y,z)", "v1() :- P(u,x), R(x,y)",
       "v2() :- R(x,y), S(y,z)"},
      // Example 3.
      {"q() :- R(x)", "v1() :- P(x)", "a() :- P(x)", "b() :- R(x)"},
      // Example 32 and Corollary 33.
      {"q() :- E(x,y), E(y,z)", "v1() :- E(x,y)",
       "v2() :- E(x,y), E(y,z), E(z,w)"},
      // Free variables, a head-only variable, duplicate atoms, a nullary
      // atom, the empty body and the optional period.
      {"v(x, y) :- E(x,z), E(z,y)", "w(a) :- E(x,y)",
       "d() :- E(x,y), E(x,y), H()", "t() :- true", "p() :- E(x,x)."},
  };
  for (const std::vector<const char*>& rules : examples) {
    QueryParser parser;
    for (const char* rule : rules) ExpectRoundTrip(parser, parser.ParseRule(rule));
  }
}

TEST(RoundTripTest, RandomStructuresThroughBooleanQueries) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("trueR", 1);
  schema->AddRelation("T", 3);
  schema->AddRelation("H", 0);
  Rng rng(0x5eed2);
  for (int iter = 0; iter < 200; ++iter) {
    Structure s = RandomStructure(schema, rng.Below(6), &rng, 1, 3);
    ConjunctiveQuery q = BooleanQueryFromStructure("b", s);
    ASSERT_EQ(q.FrozenBody(), s);
    QueryParser parser;
    for (RelationId r = 0; r < schema->NumRelations(); ++r) {
      parser.schema()->AddRelation(schema->Name(r), schema->Arity(r));
    }
    ConjunctiveQuery back = parser.ParseRule(q.ToString());
    EXPECT_EQ(back.ToString(), q.ToString());
    // The reparse numbers variables by first occurrence; "z<e>" names
    // element e of s, so map the body back by name. Isolated elements
    // print nowhere and come back through the domain size.
    std::vector<Element> element_of(back.NumVars());
    for (VarId v = 0; v < back.NumVars(); ++v) {
      element_of[v] = static_cast<Element>(std::stoul(back.VarName(v).substr(1)));
    }
    EXPECT_EQ(back.FrozenBody().MapDomain(element_of, s.DomainSize()), s);
    ExpectRoundTrip(parser, back);
  }
}

TEST(ParserFuzzTest, MutantsParseOrThrowInvalidArgument) {
  const char* const programs[] = {
      "q()  :- P(u,x), R(x,y), S(y,z)\nv1() :- P(u,x), R(x,y)\n"
      "v2() :- R(x,y), S(y,z)\n",
      "v(x, y) :- R(x,z), R(z,y).\nok :- R(a,b)\nt() :- true\n"
      "h() :- H(), E(x',x_1)  # comment\n",
      "q() :- E(x,y), E(y,z)\nv1() :- E(x,y)\nw(a) :- T(a,b,c), U(a)\n"
      "e() :- true_edge(x,y), trueR(x)\n",
  };
  const char* const inserts[] = {"(", ")", ",", ":-", "#", "."};
  Rng rng(0xf022);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text = programs[rng.Below(3)];
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = rng.Below(text.size());
      switch (rng.Below(4)) {
        case 0:  // flip one bit of one byte
          text[pos] = static_cast<char>(text[pos] ^ (1 << rng.Below(8)));
          break;
        case 1:
          text.erase(pos, 1 + rng.Below(3));
          break;
        case 2:
          text.insert(pos, text.substr(pos, 1 + rng.Below(6)));
          break;
        default:
          text.insert(pos, inserts[rng.Below(6)]);
          break;
      }
    }
    SCOPED_TRACE(text);
    QueryParser parser;
    std::vector<ConjunctiveQuery> rules;
    try {
      rules = parser.ParseProgram(text);
    } catch (const std::invalid_argument&) {
      continue;  // any other exception type fails the test
    }
    ++accepted;
    for (const ConjunctiveQuery& rule : rules) ExpectRoundTrip(parser, rule);
  }
  // The loop must exercise both outcomes.
  EXPECT_GT(accepted, 500);
  EXPECT_LT(accepted, 19500);
}

TEST(CqTest, FrozenBodyIdentifiesRepeatedVars) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,x)");
  EXPECT_EQ(q.FrozenBody().DomainSize(), 1u);
  EXPECT_TRUE(q.FrozenBody().HasFact(0, {0, 0}));
}

TEST(CqTest, BooleanEvaluationCountsHoms) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  Structure d(parser.schema());
  d.AddFact(0, {0, 1});
  d.AddFact(0, {1, 2});
  d.AddFact(0, {2, 2});
  EXPECT_EQ(q.CountHomomorphisms(d), BigInt(3));
  AnswerBag bag = q.Evaluate(d);
  ASSERT_EQ(bag.size(), 1u);
  EXPECT_EQ(bag.at({}), BigInt(3));
}

TEST(CqTest, NonBooleanEvaluationGroupsByHead) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(x) :- R(x,y)");
  Structure d(parser.schema());
  d.AddFact(0, {0, 1});
  d.AddFact(0, {0, 2});
  d.AddFact(0, {1, 2});
  AnswerBag bag = q.Evaluate(d);
  ASSERT_EQ(bag.size(), 2u);
  EXPECT_EQ(bag.at({0}), BigInt(2));
  EXPECT_EQ(bag.at({1}), BigInt(1));
}

TEST(CqTest, EmptyBodyCountsOne) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- true");
  Structure d(parser.schema());
  EXPECT_EQ(q.CountHomomorphisms(d), BigInt(1));
}

TEST(CqTest, HeadOnlyVariableRangesOverDomain) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(w) :- R(x,y)");
  Structure d(parser.schema(), 3);
  d.AddFact(0, {0, 1});
  AnswerBag bag = q.Evaluate(d);
  EXPECT_EQ(bag.size(), 3u);  // w ranges over the whole domain.
  EXPECT_EQ(bag.at({2}), BigInt(1));
}

TEST(ContainmentTest, HomCriterion) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), R(y,z)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(a,b)");
  // q ⊆set v: a hom from v's body into q's body exists.
  EXPECT_TRUE(IsContainedSetSemantics(q, v));
  // v ⊄set q in general: q's 2-path cannot map into the single edge... it
  // can (collapse not possible: R(x,y),R(y,z) needs y image to be both head
  // and tail). The frozen body of q is a 2-path; the single edge has no
  // such hom, so v is NOT contained in q... but containment asks for a hom
  // from q's body into v's body.
  EXPECT_FALSE(IsContainedSetSemantics(v, q));
}

TEST(ContainmentTest, LoopContainsEverything) {
  QueryParser parser;
  ConjunctiveQuery loop = parser.ParseRule("l() :- R(x,x)");
  ConjunctiveQuery edge = parser.ParseRule("e() :- R(x,y)");
  EXPECT_TRUE(IsContainedSetSemantics(loop, edge));
  EXPECT_FALSE(IsContainedSetSemantics(edge, loop));
}

TEST(ContainmentTest, RequiresBoolean) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(x) :- R(x,y)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(x,y)");
  EXPECT_THROW(IsContainedSetSemantics(q, v), std::invalid_argument);
}

TEST(UcqTest, CountIsSumIncludingDuplicates) {
  QueryParser parser;
  ConjunctiveQuery p = parser.ParseRule("u() :- P(x)");
  // The paper's UCQs are multisets of disjuncts: duplicates add up.
  UnionQuery u("u", {p, p});
  Structure d(parser.schema());
  d.AddFact(0, {0});
  d.AddFact(0, {1});
  EXPECT_EQ(u.Count(d), BigInt(4));  // 2 + 2.
}

TEST(UcqTest, Example3BagDeterminacyIdentity) {
  // Example 3 of the paper: q = ∃x R(x); v1 = ∃x P(x);
  // v2 = ∃x P(x) ∨ ∃x R(x). Under bag semantics q(D) = v2(D) − v1(D).
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x)");
  ConjunctiveQuery v1 = parser.ParseRule("v1() :- P(x)");
  UnionQuery v2("v2", {parser.ParseRule("v2a() :- P(x)"),
                       parser.ParseRule("v2b() :- R(x)")});
  RelationId r = *parser.schema()->Find("R");
  RelationId p = *parser.schema()->Find("P");
  for (int np = 0; np < 4; ++np) {
    for (int nr = 0; nr < 4; ++nr) {
      Structure d(parser.schema());
      for (int i = 0; i < np; ++i) d.AddFact(p, {d.AddElement()});
      for (int i = 0; i < nr; ++i) d.AddFact(r, {d.AddElement()});
      EXPECT_EQ(q.CountHomomorphisms(d),
                v2.Count(d) - v1.CountHomomorphisms(d));
    }
  }
}

TEST(UcqTest, AnswerBagsMergeAcrossDisjuncts) {
  QueryParser parser;
  ConjunctiveQuery a = parser.ParseRule("u(x) :- P(x)");
  ConjunctiveQuery b = parser.ParseRule("u(x) :- Q(x)");
  UnionQuery u("u", {a, b});
  Structure d(parser.schema());
  d.AddFact(*parser.schema()->Find("P"), {0});
  d.AddFact(*parser.schema()->Find("Q"), {0});
  d.EnsureDomain(1);
  AnswerBag bag = u.Evaluate(d);
  EXPECT_EQ(bag.at({0}), BigInt(2));
}

TEST(AnswerBagTest, EqualityIsMultisetEquality) {
  AnswerBag a;
  AnswerBag b;
  a[{0}] = BigInt(2);
  b[{0}] = BigInt(2);
  EXPECT_TRUE(AnswerBagsEqual(a, b));
  b[{0}] = BigInt(3);
  EXPECT_FALSE(AnswerBagsEqual(a, b));
  b[{0}] = BigInt(2);
  b[{1}] = BigInt(1);
  EXPECT_FALSE(AnswerBagsEqual(a, b));
}

}  // namespace
}  // namespace bagdet
