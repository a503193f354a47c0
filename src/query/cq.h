// bagdet: conjunctive queries and unions of conjunctive queries under bag
// semantics (Section 2.1 of the paper).

#ifndef BAGDET_QUERY_CQ_H_
#define BAGDET_QUERY_CQ_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {

/// Index of a variable within a query.
using VarId = std::uint32_t;

/// One atom R(x̄) of a query body, viewed in its query's flat arrays:
/// `args` points at `arity` variable ids.
struct AtomView {
  RelationId relation;
  const VarId* args;
  std::size_t arity;
};

/// The bag of answers of a query over a structure: tuple ↦ multiplicity.
/// A boolean query's answer bag maps the empty tuple to |hom(q, D)|.
using AnswerBag = std::map<Tuple, BigInt>;

/// A conjunctive query Φ = ∃ȳ φ(x̄, ȳ). Variables are indexed 0..n-1;
/// the first `NumFreeVars()` of them are the free (head) variables x̄.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  /// Builds a query from its atoms in flat form: atom i applies
  /// `atom_relations[i]` to the next Arity(atom_relations[i]) ids of
  /// `atom_args`, so the arities must add up to atom_args.size().
  /// `var_names` lists all variables (free first); every atom argument must
  /// index into it. Head-only variables are allowed in the paper's
  /// definition, but every variable must appear in `var_names`.
  ConjunctiveQuery(std::string name, std::shared_ptr<const Schema> schema,
                   std::vector<std::string> var_names, std::size_t num_free,
                   std::vector<RelationId> atom_relations,
                   std::vector<VarId> atom_args);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }
  std::size_t NumAtoms() const { return atom_relations_.size(); }

  /// Calls `fn(AtomView)` for each atom, in order (duplicates included).
  template <class Fn>
  void ForEachAtom(Fn&& fn) const {
    const VarId* args = atom_args_.data();
    for (RelationId relation : atom_relations_) {
      const std::size_t arity = schema_->Arity(relation);
      fn(AtomView{relation, args, arity});
      args += arity;
    }
  }

  std::size_t NumVars() const { return var_names_.size(); }
  std::size_t NumFreeVars() const { return num_free_; }
  const std::string& VarName(VarId v) const { return var_names_.at(v); }

  bool IsBoolean() const { return num_free_ == 0; }

  /// The frozen body (Section 2.1): variables become domain elements
  /// 0..NumVars()-1 in variable order, atoms become facts.
  const Structure& FrozenBody() const { return frozen_; }

  /// True iff the frozen body is connected (single component, nonempty).
  bool IsConnected() const { return frozen_.IsConnected(); }

  /// Answer bag Φ(D): for each assignment of the free variables, the number
  /// of homomorphisms extending it (Section 2.1). Zero-multiplicity tuples
  /// are omitted.
  AnswerBag Evaluate(const Structure& data) const;

  /// |hom(Φ, D)| — the total number of homomorphisms of the frozen body.
  /// For a boolean query this is the paper's q(D).
  BigInt CountHomomorphisms(const Structure& data) const;

  /// Renders as "name(x,..) :- R(x,y), S(y)".
  std::string ToString() const;

 private:
  std::string name_;
  std::shared_ptr<const Schema> schema_;
  std::vector<std::string> var_names_;
  std::size_t num_free_ = 0;
  std::vector<RelationId> atom_relations_;
  std::vector<VarId> atom_args_;
  Structure frozen_;
};

/// A union (disjunction) of conjunctive queries. Following the paper, a UCQ
/// is a *multiset* of disjuncts and its boolean value is the SUM of the
/// disjunct counts: Ψ(D) = Σ_{Φ∈Ψ} Φ(D). (The Theorem-2 reduction builds
/// UCQs that repeat a disjunct c(m) times, so duplicates matter.)
class UnionQuery {
 public:
  UnionQuery() = default;
  explicit UnionQuery(std::string name,
                      std::vector<ConjunctiveQuery> disjuncts);

  const std::string& name() const { return name_; }
  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  bool IsBoolean() const;

  /// Σ over disjuncts of CountHomomorphisms.
  BigInt Count(const Structure& data) const;

  /// Multiset union of the disjunct answer bags.
  AnswerBag Evaluate(const Structure& data) const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<ConjunctiveQuery> disjuncts_;
};

/// Builds the boolean CQ whose frozen body is (a copy of) `body`: one
/// existential variable per domain element, one atom per fact. Inverse of
/// ConjunctiveQuery::FrozenBody (boolean queries are identified with their
/// frozen bodies in the paper).
ConjunctiveQuery BooleanQueryFromStructure(std::string name,
                                           const Structure& body);

/// Set-semantics containment of boolean CQs: q ⊆set q′ iff hom(q′, q) ≠ ∅
/// (Section 2.1). Arguments are the queries, not their bodies.
bool IsContainedSetSemantics(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime);

/// True iff the two answer bags are equal as multisets.
bool AnswerBagsEqual(const AnswerBag& a, const AnswerBag& b);

}  // namespace bagdet

#endif  // BAGDET_QUERY_CQ_H_
