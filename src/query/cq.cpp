#include "query/cq.h"

#include <sstream>
#include <stdexcept>

#include "hom/hom.h"

namespace bagdet {

namespace {

/// Checks a query's flat atoms and freezes them into its body: variable v
/// becomes element v, atom i becomes a fact.
Structure FreezeBody(const std::shared_ptr<const Schema>& schema,
                     std::size_t num_vars, std::size_t num_free,
                     const std::vector<RelationId>& relations,
                     const std::vector<VarId>& args) {
  if (num_free > num_vars) {
    throw std::invalid_argument("ConjunctiveQuery: more free vars than vars");
  }
  std::vector<std::uint32_t> per_relation(schema->NumRelations(), 0);
  std::size_t next = 0;
  for (RelationId relation : relations) {
    const std::size_t arity = schema->Arity(relation);
    if (arity > args.size() - next) {
      throw std::invalid_argument("ConjunctiveQuery: atom arity mismatch in " +
                                  schema->Name(relation));
    }
    for (std::size_t i = next; i < next + arity; ++i) {
      if (args[i] >= num_vars) {
        throw std::invalid_argument("ConjunctiveQuery: atom uses unknown var");
      }
    }
    ++per_relation[relation];
    next += arity;
  }
  if (next != args.size()) {
    throw std::invalid_argument(
        "ConjunctiveQuery: more atom arguments than the atoms' arities");
  }
  std::vector<std::vector<Tuple>> facts(per_relation.size());
  for (RelationId r = 0; r < facts.size(); ++r) {
    facts[r].reserve(per_relation[r]);
  }
  next = 0;
  for (RelationId relation : relations) {
    const std::size_t arity = schema->Arity(relation);
    facts[relation].emplace_back(args.begin() + next,
                                 args.begin() + next + arity);
    next += arity;
  }
  return Structure::FromFacts(schema, num_vars, std::move(facts));
}

}  // namespace

ConjunctiveQuery::ConjunctiveQuery(std::string name,
                                   std::shared_ptr<const Schema> schema,
                                   std::vector<std::string> var_names,
                                   std::size_t num_free,
                                   std::vector<RelationId> atom_relations,
                                   std::vector<VarId> atom_args)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      var_names_(std::move(var_names)),
      num_free_(num_free),
      atom_relations_(std::move(atom_relations)),
      atom_args_(std::move(atom_args)),
      frozen_(FreezeBody(schema_, var_names_.size(), num_free_,
                         atom_relations_, atom_args_)) {}

AnswerBag ConjunctiveQuery::Evaluate(const Structure& data) const {
  AnswerBag answers;
  EnumerateHoms(frozen_, data, [&](const std::vector<Element>& assignment) {
    Tuple head(num_free_);
    for (std::size_t i = 0; i < num_free_; ++i) head[i] = assignment[i];
    answers[head] += BigInt(1);
    return true;
  });
  return answers;
}

BigInt ConjunctiveQuery::CountHomomorphisms(const Structure& data) const {
  return CountHoms(frozen_, data);
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream os;
  os << name_ << '(';
  for (std::size_t i = 0; i < num_free_; ++i) {
    if (i != 0) os << ',';
    os << var_names_[i];
  }
  os << ") :- ";
  bool first = true;
  ForEachAtom([&](const AtomView& atom) {
    if (!first) os << ", ";
    first = false;
    os << schema_->Name(atom.relation) << '(';
    for (std::size_t j = 0; j < atom.arity; ++j) {
      if (j != 0) os << ',';
      os << var_names_[atom.args[j]];
    }
    os << ')';
  });
  if (first) os << "true";
  return os.str();
}

UnionQuery::UnionQuery(std::string name,
                       std::vector<ConjunctiveQuery> disjuncts)
    : name_(std::move(name)), disjuncts_(std::move(disjuncts)) {}

bool UnionQuery::IsBoolean() const {
  for (const ConjunctiveQuery& d : disjuncts_) {
    if (!d.IsBoolean()) return false;
  }
  return true;
}

BigInt UnionQuery::Count(const Structure& data) const {
  BigInt total(0);
  for (const ConjunctiveQuery& d : disjuncts_) {
    total += d.CountHomomorphisms(data);
  }
  return total;
}

AnswerBag UnionQuery::Evaluate(const Structure& data) const {
  AnswerBag total;
  for (const ConjunctiveQuery& d : disjuncts_) {
    for (const auto& [tuple, count] : d.Evaluate(data)) {
      total[tuple] += count;
    }
  }
  return total;
}

std::string UnionQuery::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i != 0) os << "  |  ";
    os << disjuncts_[i].ToString();
  }
  return os.str();
}

ConjunctiveQuery BooleanQueryFromStructure(std::string name,
                                           const Structure& body) {
  std::vector<std::string> var_names;
  var_names.reserve(body.DomainSize());
  for (std::size_t e = 0; e < body.DomainSize(); ++e) {
    var_names.push_back("z" + std::to_string(e));
  }
  std::vector<RelationId> relations;
  std::vector<VarId> args;
  relations.reserve(body.NumFacts());
  for (RelationId r = 0; r < body.schema().NumRelations(); ++r) {
    for (const Tuple& t : body.Facts(r)) {
      relations.push_back(r);
      args.insert(args.end(), t.begin(), t.end());
    }
  }
  return ConjunctiveQuery(std::move(name), body.schema_ptr(),
                          std::move(var_names), 0, std::move(relations),
                          std::move(args));
}

bool IsContainedSetSemantics(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime) {
  if (!q.IsBoolean() || !q_prime.IsBoolean()) {
    throw std::invalid_argument(
        "IsContainedSetSemantics: boolean queries expected");
  }
  return ExistsHom(q_prime.FrozenBody(), q.FrozenBody());
}

bool AnswerBagsEqual(const AnswerBag& a, const AnswerBag& b) {
  // AnswerBag omits zero multiplicities, so plain map equality is multiset
  // equality.
  return a == b;
}

}  // namespace bagdet
