// bagdet: relational schemas.
//
// A schema is a finite set of relation symbols with fixed arities
// (Section 2.1 of the paper). Arity 0 (nullary predicates, used by the
// Theorem-2 reduction) through arbitrary n are supported.

#ifndef BAGDET_STRUCTS_SCHEMA_H_
#define BAGDET_STRUCTS_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/name_index.h"

namespace bagdet {

/// Index of a relation within its schema.
using RelationId = std::uint32_t;

/// A finite set of relation symbols with arities.
class Schema {
 public:
  Schema() = default;

  /// Adds a relation; returns its id. Throws std::invalid_argument when the
  /// name already exists with a different arity; re-adding with the same
  /// arity returns the existing id and builds no string.
  RelationId AddRelation(std::string_view name, std::size_t arity) {
    RelationId id = by_name_.Find(name, NameOf{&names_});
    if (id != NameIndex::kAbsent) {
      if (arities_[id] != arity) {
        throw std::invalid_argument("Schema: relation '" + std::string(name) +
                                    "' redeclared with different arity");
      }
      return id;
    }
    id = static_cast<RelationId>(names_.size());
    names_.emplace_back(name);
    arities_.push_back(arity);
    by_name_.Insert(name, id, NameOf{&names_});
    return id;
  }

  std::size_t NumRelations() const { return names_.size(); }
  const std::string& Name(RelationId id) const { return names_.at(id); }
  std::size_t Arity(RelationId id) const { return arities_.at(id); }

  /// Id of a named relation, if present.
  std::optional<RelationId> Find(std::string_view name) const {
    const RelationId id = by_name_.Find(name, NameOf{&names_});
    if (id == NameIndex::kAbsent) return std::nullopt;
    return id;
  }

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.names_ == b.names_ && a.arities_ == b.arities_;
  }
  friend bool operator!=(const Schema& a, const Schema& b) { return !(a == b); }

 private:
  /// The index keys relation ids, not views into `names_`: a short name's
  /// characters move when `names_` grows.
  struct NameOf {
    const std::vector<std::string>* names;
    std::string_view operator()(RelationId id) const { return (*names)[id]; }
  };

  std::vector<std::string> names_;
  std::vector<std::size_t> arities_;
  NameIndex by_name_;
};

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_SCHEMA_H_
