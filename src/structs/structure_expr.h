// bagdet: symbolic structure terms.
//
// The good basis of Lemma 40 involves structures like
//   s(2) = Σ_i T^i s(1)_i         (Step 2, radix construction)
//   s(3)_j = (s(2))^(j-1)         (Step 3, iterated products)
//   s(4)_j = s(3)_j × q           (Step 4)
// whose materialized domains are astronomically large. StructureExpr
// represents such terms exactly as an immutable shared DAG; homomorphism
// counts *into* a term are evaluated symbolically via the Lovász identities
// (Lemma 4) by hom/symbolic.h, and terms can be materialized into concrete
// structures when small enough.

#ifndef BAGDET_STRUCTS_STRUCTURE_EXPR_H_
#define BAGDET_STRUCTS_STRUCTURE_EXPR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {

/// An exact, immutable term over structures built from disjoint unions,
/// products, scalar multiples and powers (Section 2.2 of the paper).
class StructureExpr {
 public:
  enum class Kind { kBase, kSum, kProduct, kScalar, kPower };

  /// Default: the empty structure over an empty schema.
  StructureExpr();

  /// Leaf: a concrete structure.
  static StructureExpr Base(Structure s);
  /// Disjoint union of the children (empty sum = empty structure, which
  /// needs a schema, hence the argument).
  static StructureExpr Sum(std::vector<StructureExpr> children,
                           std::shared_ptr<const Schema> schema);
  /// Product of the children (empty product = all-loops singleton).
  static StructureExpr Product(std::vector<StructureExpr> children,
                               std::shared_ptr<const Schema> schema);
  /// coeff · child (coeff >= 0).
  static StructureExpr Scalar(BigInt coeff, StructureExpr child);
  /// child^exponent; exponent 0 yields the all-loops singleton.
  static StructureExpr Power(StructureExpr child, std::uint64_t exponent);

  /// Identity of this node: the address of the shared node, equal for
  /// every handle to the same subterm. Valid only while some handle keeps
  /// the node alive (an address can be reused after the node is freed).
  const void* id() const { return node_.get(); }

  Kind kind() const { return node_->kind; }
  const Structure& base() const { return node_->base; }
  const std::vector<StructureExpr>& children() const { return node_->children; }
  const BigInt& scalar() const { return node_->scalar; }
  std::uint64_t exponent() const { return node_->exponent; }
  const std::shared_ptr<const Schema>& schema_ptr() const {
    return node_->schema;
  }
  const Schema& schema() const { return *node_->schema; }

  /// Exact domain size of the denoted structure.
  BigInt DomainSize() const;

  /// Exact total fact count of the denoted structure. (Product fact counts
  /// multiply per relation, so this needs per-relation accounting.)
  BigInt NumFacts() const;

  /// Materializes the term into a concrete Structure when the resulting
  /// domain has at most `max_domain` elements; std::nullopt otherwise.
  std::optional<Structure> Materialize(std::size_t max_domain = 4096) const;

  /// Term rendering, e.g. "3*(R(0,1)) + (S(0))^2".
  std::string ToString() const;

 private:
  struct Node {
    Kind kind;
    Structure base;                      // kBase
    std::vector<StructureExpr> children; // kSum, kProduct
    BigInt scalar;                       // kScalar
    std::uint64_t exponent = 0;          // kPower
    std::shared_ptr<const Schema> schema;
  };

  explicit StructureExpr(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::vector<BigInt> PerRelationFacts() const;

  std::shared_ptr<const Node> node_;
};

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_STRUCTURE_EXPR_H_
