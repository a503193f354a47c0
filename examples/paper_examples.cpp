// paper_examples: regenerates the paper's worked examples (Examples 2, 3,
// 13 and 32, Corollary 33) as a table: for each, the paper's claim and the
// verdict our implementation computes. Exits 1 if any row is a MISMATCH.

#include <iostream>
#include <string>

#include "core/determinacy.h"
#include "path/path_query.h"
#include "path/qwalk.h"
#include "query/parser.h"

namespace bagdet {
namespace {

int g_mismatches = 0;

void Row(const std::string& id, const std::string& claim,
         const std::string& computed, bool match) {
  std::cout << id << " | " << claim << " | " << computed << " | "
            << (match ? "REPRODUCED" : "MISMATCH") << "\n";
  if (!match) ++g_mismatches;
}

void Example2() {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q()  :- P(u,x), R(x,y), S(y,z)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- P(u,x), R(x,y)"),
      parser.ParseRule("v2() :- R(x,y), S(y,z)"),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  bool verified =
      result.counterexample.has_value() &&
      !VerifyCounterexample(result.analysis, *result.counterexample)
           .has_value();
  Row("EX2", "V -->set q but V -/->bag q",
      std::string(result.determined ? "bag-determined"
                                    : "NOT bag-determined") +
          ", counterexample " + (verified ? "verified" : "FAILED"),
      !result.determined && verified);
}

void Example3() {
  // UCQ identity q(D) = v2(D) − v1(D) checked over a parameter sweep.
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x)");
  ConjunctiveQuery v1 = parser.ParseRule("v1() :- P(x)");
  UnionQuery v2("v2", {parser.ParseRule("a() :- P(x)"),
                       parser.ParseRule("b() :- R(x)")});
  RelationId r = *parser.schema()->Find("R");
  RelationId p = *parser.schema()->Find("P");
  bool holds = true;
  for (int np = 0; np < 5; ++np) {
    for (int nr = 0; nr < 5; ++nr) {
      Structure d(parser.schema());
      for (int i = 0; i < np; ++i) d.AddFact(p, {d.AddElement()});
      for (int i = 0; i < nr; ++i) d.AddFact(r, {d.AddElement()});
      if (q.CountHomomorphisms(d) != v2.Count(d) - v1.CountHomomorphisms(d)) {
        holds = false;
      }
    }
  }
  Row("EX3", "UCQ views: q(D) = v2(D) - v1(D), so V -->bag q",
      holds ? "identity holds on 25-point sweep" : "identity FAILS", holds);
}

void Example13() {
  auto schema = std::make_shared<Schema>();
  PathQuery q = PathQuery::FromWord("ABCD", schema);
  std::vector<PathQuery> views = {PathQuery::FromWord("ABC", schema),
                                  PathQuery::FromWord("BC", schema),
                                  PathQuery::FromWord("BCD", schema)};
  PathDeterminacyResult result = DecidePathDeterminacy(q, views);
  std::string walk_text = "(no path)";
  bool reduced = false;
  if (result.determined) {
    SignedWord walk = BuildQWalk(q, views, result.path);
    walk_text = SignedWordToString(walk, *schema);
    reduced = IsQWalk(walk, q) &&
              ReduceToFixpointPlusMinus(walk).back() == ToSignedWord(q);
  }
  Row("EX13", "path eps->ABC->A->ABCD exists; walk reduces to q",
      "determined=" + std::string(result.determined ? "yes" : "no") +
          ", q-walk " + walk_text +
          (reduced ? " reduces to ABCD" : " (reduction FAILED)"),
      result.determined && reduced);
}

void Example32() {
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
  std::string witness = "(none)";
  if (result.witness.has_value()) {
    witness = "alpha = " + result.witness->exponents.ToString();
  }
  bool expected = result.determined && result.witness.has_value() &&
                  result.witness->exponents ==
                      Vec{Rational(3), Rational(-1)};
  Row("EX32", "q-vec = 3*v1-vec - v2-vec (witness exponents 3, -1)", witness,
      expected);
}

void Corollary33() {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- E(x,y), E(y,z)");
  std::vector<ConjunctiveQuery> views = {
      parser.ParseRule("v1() :- E(x,y)"),
      parser.ParseRule("v2() :- E(x,y), E(y,z), E(z,w)"),
  };
  DeterminacyOptions options;
  options.want_counterexample = false;
  bool without = DecideBagDeterminacy(views, q, options).determined;
  views.push_back(parser.ParseRule("v3() :- E(a,b), E(b,c)"));
  bool with_q = DecideBagDeterminacy(views, q, options).determined;
  Row("C33", "connected case: determined iff q itself is a view",
      std::string("without q: ") + (without ? "determined" : "not") +
          "; with q: " + (with_q ? "determined" : "not"),
      !without && with_q);
}

}  // namespace
}  // namespace bagdet

int main() {
  std::cout << "id | paper claim | computed | status\n";
  std::cout << "---|---|---|---\n";
  bagdet::Example2();
  bagdet::Example3();
  bagdet::Example13();
  bagdet::Example32();
  bagdet::Corollary33();
  return bagdet::g_mismatches == 0 ? 0 : 1;
}
