// bagdet: finite relational structures (databases).
//
// A structure over a schema is a finite set of facts A(t̄) over a domain
// {0, 1, ..., n-1} (Section 2.1). Facts are kept sorted and deduplicated so
// structures are canonical up to the naming of domain elements.

#ifndef BAGDET_STRUCTS_STRUCTURE_H_
#define BAGDET_STRUCTS_STRUCTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "structs/schema.h"

namespace bagdet {

class StructureIndex;
struct StructureCanonicalData;
class ComponentRange;

/// A domain element. Domains are always {0, ..., DomainSize()-1}.
using Element = std::uint32_t;

/// A tuple of domain elements (length = relation arity; empty for nullary).
using Tuple = std::vector<Element>;

/// Finite relational structure with set semantics for facts.
class Structure {
 public:
  /// Empty structure over an empty schema.
  Structure() : schema_(std::make_shared<Schema>()) {}

  /// Empty structure (no facts, `domain_size` isolated elements).
  explicit Structure(std::shared_ptr<const Schema> schema,
                     std::size_t domain_size = 0);

  /// The structure with `facts[r]` as relation r's facts, given in any
  /// order and with duplicates, over a domain of at least `domain_size`
  /// elements. Equal to AddFact-ing each fact in turn, relation by relation,
  /// and throws the same errors at the same fact; but it sorts and dedups
  /// each relation once instead of inserting fact by fact.
  static Structure FromFacts(std::shared_ptr<const Schema> schema,
                             std::size_t domain_size,
                             std::vector<std::vector<Tuple>> facts);

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }

  std::size_t DomainSize() const { return domain_size_; }

  /// Grows the domain to at least `size` elements.
  void EnsureDomain(std::size_t size) {
    if (size > domain_size_) {
      domain_size_ = size;
      ResetCaches();
    }
  }

  /// Adds a fresh isolated element and returns it.
  Element AddElement() {
    ResetCaches();
    return static_cast<Element>(domain_size_++);
  }

  /// Adds the fact `relation(elements...)`; grows the domain as needed.
  /// Duplicate facts are ignored (structures are sets of facts).
  /// Throws std::invalid_argument when the tuple length != relation arity.
  void AddFact(RelationId relation, Tuple elements);

  /// True iff the fact is present.
  bool HasFact(RelationId relation, const Tuple& elements) const;

  /// All facts of one relation, sorted lexicographically. Relations added
  /// to the schema after this structure was built have no facts.
  const std::vector<Tuple>& Facts(RelationId relation) const {
    static const std::vector<Tuple> kEmpty;
    return relation < facts_.size() ? facts_[relation] : kEmpty;
  }

  /// Total number of facts across all relations.
  std::size_t NumFacts() const;

  /// True iff there are no facts and no domain elements.
  bool IsEmpty() const { return domain_size_ == 0 && NumFacts() == 0; }

  /// True iff the structure's "Gaifman graph" is connected and the domain is
  /// nonempty — or the structure is a single nullary fact with empty domain.
  /// The empty structure is not connected. Reads Components().
  bool IsConnected() const;

  /// Connected components (Section 2's notion, via the co-occurrence graph
  /// on domain elements). Isolated elements become single-element
  /// components; each nullary fact becomes its own empty-domain component;
  /// the empty structure has none. Computed on first use and cached with
  /// the same lifetime/invalidation rules as Index(). A connected structure
  /// is its own single component: the range is {this, 1} and nothing is
  /// copied. The range stays valid until the structure is mutated or
  /// destroyed.
  ComponentRange Components() const;

  /// Renames the domain through `mapping` (mapping[i] = new name of i) into a
  /// structure with domain size `new_domain_size`. The mapping need not be
  /// injective (this computes quotients, used by the distinguisher search).
  Structure MapDomain(const std::vector<Element>& mapping,
                      std::size_t new_domain_size) const;

  /// Human-readable listing: "R(0,1), S(1)" etc.
  std::string ToString() const;

  friend bool operator==(const Structure& a, const Structure& b);
  friend bool operator!=(const Structure& a, const Structure& b) {
    return !(a == b);
  }

  /// Positional fact index (position → value → fact ids; see
  /// structs/index.h). Built lazily on first use and cached; any mutation
  /// invalidates the cache. The reference stays valid until the structure
  /// is mutated or destroyed.
  const StructureIndex& Index() const;

  /// Complete canonical form (key + per-component certificates; see
  /// structs/canonical.h). Built lazily on first use and cached with the
  /// same lifetime/invalidation rules as Index().
  const StructureCanonicalData& CanonicalData() const;

  /// The cached canonical form, or null when none has been computed or
  /// installed yet. Read-only: never starts the labeling search, so it is
  /// safe on a frozen structure that other threads read concurrently.
  const StructureCanonicalData* CachedCanonicalData() const {
    return canonical_.get();
  }

  /// Installs an externally computed canonical form, skipping the labeling
  /// search. The caller guarantees `data` describes this structure's
  /// current contents (interning layers hold the certificates already).
  void CacheCanonicalData(
      std::shared_ptr<const StructureCanonicalData> data) const {
    canonical_ = std::move(data);
  }

 private:
  using ComponentList = std::vector<Structure>;

  Structure(std::shared_ptr<const Schema> schema, std::size_t domain_size,
            std::vector<std::vector<Tuple>> facts)
      : schema_(std::move(schema)),
        domain_size_(domain_size),
        facts_(std::move(facts)) {}

  void ResetCaches() {
    index_.reset();
    canonical_.reset();
    components_.reset();
  }

  /// The one decomposition routine behind Components().
  static std::shared_ptr<const ComponentList> Decompose(const Structure& s);

  std::shared_ptr<const Schema> schema_;
  std::size_t domain_size_ = 0;
  // facts_[r] = sorted vector of unique tuples of relation r.
  std::vector<std::vector<Tuple>> facts_;
  // Lazily built index; shared so copies reuse it until either side
  // mutates (mutation resets only the mutated structure's pointer).
  mutable std::shared_ptr<const StructureIndex> index_;
  // Lazily computed canonical form, cached with the same sharing scheme.
  mutable std::shared_ptr<const StructureCanonicalData> canonical_;
  // Lazily computed components, same sharing scheme. A connected structure
  // holds a static marker instead of a copy of itself (see Decompose).
  mutable std::shared_ptr<const ComponentList> components_;
};

/// Read-only view of a structure's connected components, as returned by
/// Structure::Components(): a contiguous run of connected structures.
class ComponentRange {
 public:
  ComponentRange(const Structure* first, std::size_t size)
      : first_(first), size_(size) {}

  const Structure* begin() const { return first_; }
  const Structure* end() const { return first_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Structure& operator[](std::size_t i) const { return first_[i]; }

 private:
  const Structure* first_;
  std::size_t size_;
};

/// Disjoint union A + B (Section 2.2); schemas must be equal. Nullary facts
/// are unioned as sets (a nullary fact has no constants to rename).
Structure DisjointUnion(const Structure& a, const Structure& b);

/// Product A × B (Section 2.2). Element ⟨a,b⟩ is encoded as
/// a * B.DomainSize() + b.
Structure Product(const Structure& a, const Structure& b);

/// t · A = A + A + ... + A (t times); 0 · A is the empty structure.
Structure ScalarMultiple(std::uint64_t t, const Structure& a);

/// A^t; A^0 is the all-loops singleton {α} with R(α,...,α) for every R
/// (the paper's convention in Section 2.2).
Structure IteratedProduct(const Structure& a, std::uint64_t t);

/// The all-loops singleton over a schema (identity of ×).
Structure AllLoopsSingleton(std::shared_ptr<const Schema> schema);

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_STRUCTURE_H_
