#include "structs/structure.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "structs/canonical.h"
#include "structs/index.h"

namespace bagdet {

Structure::Structure(std::shared_ptr<const Schema> schema,
                     std::size_t domain_size)
    : schema_(std::move(schema)), domain_size_(domain_size) {
  facts_.resize(schema_->NumRelations());
}

Structure Structure::FromFacts(std::shared_ptr<const Schema> schema,
                               std::size_t domain_size,
                               std::vector<std::vector<Tuple>> facts) {
  const std::size_t num_relations = schema->NumRelations();
  for (RelationId r = 0; r < facts.size(); ++r) {
    if (facts[r].empty()) continue;
    if (r >= num_relations) {
      throw std::invalid_argument("Structure: unknown relation id");
    }
    const std::size_t arity = schema->Arity(r);
    for (const Tuple& t : facts[r]) {
      if (t.size() != arity) {
        throw std::invalid_argument("Structure: tuple arity mismatch for " +
                                    schema->Name(r));
      }
      for (Element e : t) {
        domain_size = std::max(domain_size, static_cast<std::size_t>(e) + 1);
      }
    }
  }
  facts.resize(num_relations);
  for (std::vector<Tuple>& rows : facts) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
  return Structure(std::move(schema), domain_size, std::move(facts));
}

void Structure::AddFact(RelationId relation, Tuple elements) {
  if (relation >= schema_->NumRelations()) {
    throw std::invalid_argument("Structure: unknown relation id");
  }
  if (elements.size() != schema_->Arity(relation)) {
    throw std::invalid_argument("Structure: tuple arity mismatch for " +
                                schema_->Name(relation));
  }
  if (facts_.size() < schema_->NumRelations()) {
    facts_.resize(schema_->NumRelations());
  }
  for (Element e : elements) {
    EnsureDomain(static_cast<std::size_t>(e) + 1);
  }
  auto& rows = facts_[relation];
  auto it = std::lower_bound(rows.begin(), rows.end(), elements);
  if (it == rows.end() || *it != elements) {
    rows.insert(it, std::move(elements));
    ResetCaches();
  }
}

const StructureIndex& Structure::Index() const {
  if (index_ == nullptr) index_ = std::make_shared<StructureIndex>(*this);
  return *index_;
}

const StructureCanonicalData& Structure::CanonicalData() const {
  if (canonical_ == nullptr) {
    canonical_ =
        std::make_shared<const StructureCanonicalData>(ComputeCanonicalData(*this));
  }
  return *canonical_;
}

bool Structure::HasFact(RelationId relation, const Tuple& elements) const {
  if (relation >= facts_.size()) return false;
  const auto& rows = facts_[relation];
  return std::binary_search(rows.begin(), rows.end(), elements);
}

std::size_t Structure::NumFacts() const {
  std::size_t total = 0;
  for (const auto& rows : facts_) total += rows.size();
  return total;
}

namespace {

/// Plain union-find over 0..n-1.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Components() marker of a connected structure: it is its own single
/// component. Non-owning (aliasing constructor over an empty owner), so
/// copying a connected structure never touches a shared reference count.
const std::shared_ptr<const std::vector<Structure>>& ConnectedMarker() {
  static const std::vector<Structure> kNone;
  static const std::shared_ptr<const std::vector<Structure>> kMarker(
      std::shared_ptr<const std::vector<Structure>>(), &kNone);
  return kMarker;
}

}  // namespace

std::shared_ptr<const Structure::ComponentList> Structure::Decompose(
    const Structure& s) {
  const std::size_t n = s.domain_size_;
  UnionFind uf(n);
  std::size_t nullary_facts = 0;
  for (const auto& rows : s.facts_) {
    for (const Tuple& t : rows) {
      if (t.empty()) ++nullary_facts;
      for (std::size_t i = 1; i < t.size(); ++i) uf.Union(t[0], t[i]);
    }
  }
  // Components are numbered by increasing root id; within one, elements
  // keep their relative order.
  constexpr std::size_t kNoComponent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of_root(n, kNoComponent);
  std::size_t num_groups = 0;
  for (std::size_t e = 0; e < n; ++e) {
    if (uf.Find(e) == e) component_of_root[e] = num_groups++;
  }
  if (num_groups + nullary_facts == 1) return ConnectedMarker();

  std::vector<std::size_t> component_of(n);
  std::vector<Element> rename(n);
  std::vector<std::size_t> sizes(num_groups, 0);
  for (std::size_t e = 0; e < n; ++e) {
    component_of[e] = component_of_root[uf.Find(e)];
    rename[e] = static_cast<Element>(sizes[component_of[e]]++);
  }
  auto components = std::make_shared<ComponentList>();
  components->reserve(num_groups + nullary_facts);
  for (std::size_t size : sizes) components->emplace_back(s.schema_, size);
  // Renaming is order-preserving within a component, so each relation's
  // renamed tuples arrive sorted and unique: size every fact list exactly
  // and append, instead of AddFact's search-and-insert.
  for (RelationId r = 0; r < s.facts_.size(); ++r) {
    if (s.schema_->Arity(r) == 0) continue;
    std::vector<std::size_t> counts(num_groups, 0);
    for (const Tuple& t : s.facts_[r]) ++counts[component_of[t[0]]];
    for (std::size_t c = 0; c < num_groups; ++c) {
      (*components)[c].facts_[r].reserve(counts[c]);
    }
    for (const Tuple& t : s.facts_[r]) {
      Tuple renamed(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) renamed[i] = rename[t[i]];
      (*components)[component_of[t[0]]].facts_[r].push_back(
          std::move(renamed));
    }
  }
  // Each nullary fact is its own empty-domain component, after the others.
  for (RelationId r = 0; r < s.facts_.size(); ++r) {
    if (s.schema_->Arity(r) != 0 || s.facts_[r].empty()) continue;
    Structure c(s.schema_, 0);
    c.facts_[r].emplace_back();
    components->push_back(std::move(c));
  }
  // Every piece is connected, so its own decomposition is known already;
  // readers of a shared decomposition never fill a cache.
  for (Structure& c : *components) c.components_ = ConnectedMarker();
  return components;
}

ComponentRange Structure::Components() const {
  if (components_ == nullptr) components_ = Decompose(*this);
  if (components_ == ConnectedMarker()) return ComponentRange(this, 1);
  return ComponentRange(components_->data(), components_->size());
}

bool Structure::IsConnected() const { return Components().size() == 1; }

Structure Structure::MapDomain(const std::vector<Element>& mapping,
                               std::size_t new_domain_size) const {
  if (mapping.size() < domain_size_) {
    throw std::invalid_argument("MapDomain: mapping too short");
  }
  Structure result(schema_, new_domain_size);
  for (RelationId r = 0; r < facts_.size(); ++r) {
    for (const Tuple& t : facts_[r]) {
      Tuple mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) mapped[i] = mapping[t[i]];
      result.AddFact(r, std::move(mapped));
    }
  }
  return result;
}

std::string Structure::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (RelationId r = 0; r < facts_.size(); ++r) {
    for (const Tuple& t : facts_[r]) {
      if (!first) os << ", ";
      first = false;
      os << schema_->Name(r) << '(';
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i != 0) os << ',';
        os << t[i];
      }
      os << ')';
    }
  }
  if (first) os << "<empty" << (domain_size_ ? "" : ", no domain") << ">";
  return os.str();
}

bool operator==(const Structure& a, const Structure& b) {
  if (*a.schema_ != *b.schema_ || a.domain_size_ != b.domain_size_) {
    return false;
  }
  // Through Facts(): a structure built before its schema grew holds no
  // fact list for the newer relations.
  for (RelationId r = 0; r < a.schema_->NumRelations(); ++r) {
    if (a.Facts(r) != b.Facts(r)) return false;
  }
  return true;
}

Structure DisjointUnion(const Structure& a, const Structure& b) {
  if (a.schema() != b.schema()) {
    throw std::invalid_argument("DisjointUnion: schema mismatch");
  }
  Structure result(a.schema_ptr(), a.DomainSize() + b.DomainSize());
  const Element offset = static_cast<Element>(a.DomainSize());
  for (RelationId r = 0; r < a.schema().NumRelations(); ++r) {
    for (const Tuple& t : a.Facts(r)) result.AddFact(r, t);
    for (const Tuple& t : b.Facts(r)) {
      Tuple shifted(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) shifted[i] = t[i] + offset;
      result.AddFact(r, std::move(shifted));
    }
  }
  return result;
}

Structure Product(const Structure& a, const Structure& b) {
  if (a.schema() != b.schema()) {
    throw std::invalid_argument("Product: schema mismatch");
  }
  const std::size_t nb = b.DomainSize();
  Structure result(a.schema_ptr(), a.DomainSize() * nb);
  for (RelationId r = 0; r < a.schema().NumRelations(); ++r) {
    for (const Tuple& ta : a.Facts(r)) {
      for (const Tuple& tb : b.Facts(r)) {
        Tuple combined(ta.size());
        for (std::size_t i = 0; i < ta.size(); ++i) {
          combined[i] = static_cast<Element>(ta[i] * nb + tb[i]);
        }
        result.AddFact(r, std::move(combined));
      }
    }
  }
  return result;
}

Structure ScalarMultiple(std::uint64_t t, const Structure& a) {
  Structure result(a.schema_ptr(), 0);
  for (std::uint64_t i = 0; i < t; ++i) result = DisjointUnion(result, a);
  return result;
}

Structure AllLoopsSingleton(std::shared_ptr<const Schema> schema) {
  Structure result(schema, 1);
  for (RelationId r = 0; r < schema->NumRelations(); ++r) {
    result.AddFact(r, Tuple(result.schema().Arity(r), 0));
  }
  return result;
}

Structure IteratedProduct(const Structure& a, std::uint64_t t) {
  Structure result = AllLoopsSingleton(a.schema_ptr());
  for (std::uint64_t i = 0; i < t; ++i) result = Product(result, a);
  return result;
}

}  // namespace bagdet
