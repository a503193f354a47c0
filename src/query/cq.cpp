#include "query/cq.h"

#include <sstream>
#include <stdexcept>

#include "hom/hom.h"

namespace bagdet {

ConjunctiveQuery::ConjunctiveQuery(std::string name,
                                   std::shared_ptr<const Schema> schema,
                                   std::vector<std::string> var_names,
                                   std::size_t num_free,
                                   std::vector<QueryAtom> atoms)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      var_names_(std::move(var_names)),
      num_free_(num_free),
      atoms_(std::move(atoms)) {
  if (num_free_ > var_names_.size()) {
    throw std::invalid_argument("ConjunctiveQuery: more free vars than vars");
  }
  frozen_ = Structure(schema_, var_names_.size());
  for (const QueryAtom& atom : atoms_) {
    if (atom.args.size() != schema_->Arity(atom.relation)) {
      throw std::invalid_argument("ConjunctiveQuery: atom arity mismatch in " +
                                  schema_->Name(atom.relation));
    }
    Tuple tuple(atom.args.size());
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i] >= var_names_.size()) {
        throw std::invalid_argument("ConjunctiveQuery: atom uses unknown var");
      }
      tuple[i] = atom.args[i];
    }
    frozen_.AddFact(atom.relation, std::move(tuple));
  }
}

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
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (i != 0) os << ", ";
    os << schema_->Name(atoms_[i].relation) << '(';
    for (std::size_t j = 0; j < atoms_[i].args.size(); ++j) {
      if (j != 0) os << ',';
      os << var_names_[atoms_[i].args[j]];
    }
    os << ')';
  }
  if (atoms_.empty()) os << "true";
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
  std::vector<QueryAtom> atoms;
  for (RelationId r = 0; r < body.schema().NumRelations(); ++r) {
    for (const Tuple& t : body.Facts(r)) {
      QueryAtom atom;
      atom.relation = r;
      atom.args.assign(t.begin(), t.end());
      atoms.push_back(std::move(atom));
    }
  }
  return ConjunctiveQuery(std::move(name), body.schema_ptr(),
                          std::move(var_names), 0, std::move(atoms));
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
