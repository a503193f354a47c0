// bagdet: a small datalog-style parser for conjunctive queries.
//
// Grammar (one rule per line; '#' starts a comment):
//
//   rule    := head ":-" body "."?
//   head    := NAME | NAME "(" vars? ")"
//   body    := "true" | atom ("," atom)*
//   atom    := NAME "(" vars? ")"
//   vars    := NAME ("," NAME)*
//   NAME    := [A-Za-z0-9_']+
//
// Whitespace (ASCII space, \t, \n, \v, \f, \r) may separate tokens. The body
// "true" is the empty body only as a whole NAME token: `true_edge(x,y)` and
// `trueR(x)` are atoms.
//
// Example:
//   q()  :- P(u,x), R(x,y), S(y,z)
//   v1() :- P(u,x), R(x,y)
//
// Relation symbols and their arities are inferred and accumulated in the
// parser's schema, so a sequence of rules shares one schema. Several rules
// with the same head name form a UCQ (a *multiset* of disjuncts).

#ifndef BAGDET_QUERY_PARSER_H_
#define BAGDET_QUERY_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "query/cq.h"
#include "util/name_index.h"

namespace bagdet {

/// Parses rules into ConjunctiveQuery values over a shared growing schema.
class QueryParser {
 public:
  QueryParser() : schema_(std::make_shared<Schema>()) {}

  /// Parses a single rule. Throws std::invalid_argument with a position
  /// hint on malformed input or on arity conflicts with earlier rules.
  ConjunctiveQuery ParseRule(std::string_view line);

  /// Parses a newline-separated sequence of rules, skipping blank lines and
  /// '#' comments.
  std::vector<ConjunctiveQuery> ParseProgram(std::string_view text);

  /// The schema accumulated so far (grows as rules are parsed).
  const std::shared_ptr<Schema>& schema() const { return schema_; }

 private:
  std::shared_ptr<Schema> schema_;
  // Scratch reused across rules, so that a rule allocates only what its
  // query keeps: the rule's variable names by VarId (views into its line),
  // their index, and its atoms in flat form.
  std::vector<std::string_view> var_names_;
  NameIndex var_ids_;
  std::vector<RelationId> relations_;
  std::vector<VarId> args_;
};

}  // namespace bagdet

#endif  // BAGDET_QUERY_PARSER_H_
