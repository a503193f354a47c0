// bagdet: symbolic homomorphism counting into StructureExpr terms.
//
// Lemma 4 of the paper turns structure algebra into count algebra:
//   hom(A, B + C) = hom(A, B) + hom(A, C)   (A connected)
//   hom(A, t·B)   = t · hom(A, B)           (A connected)
//   hom(A, B × C) = hom(A, B) · hom(A, C)
//   hom(A, B^t)   = hom(A, B)^t
// This lets us evaluate hom counts into terms whose materialization would
// be astronomically large (the good basis structures of Lemma 40).
//
// Terms are DAGs: the counterexample d = Σ c_j·(s(2)^j × q) shares s(2)
// and q across all its terms, and d′ shares the same s_j. A SymbolicMemo
// lets the cached evaluation visit each node once per source class.

#ifndef BAGDET_HOM_SYMBOLIC_H_
#define BAGDET_HOM_SYMBOLIC_H_

#include <utility>
#include <vector>

#include "structs/pool.h"
#include "structs/structure.h"
#include "structs/structure_expr.h"
#include "util/bigint.h"

namespace bagdet {

class HomCache;

/// Node counts of Lemma-4 evaluations, one per (source class, expression
/// node). Nodes are keyed by StructureExpr::id(), an address, and sources
/// by their HomCache pool ref, so a memo is valid only while every
/// expression it has seen is alive and only with the one HomCache it was
/// first used with. Scope a memo to a single function call; it is not
/// thread-safe.
class SymbolicMemo {
 public:
  struct NodeCount {
    const void* node;
    BigInt count;
  };

  /// The counts recorded for `source` (empty on first use). The reference
  /// is invalidated by the next call with a different source.
  std::vector<NodeCount>& Of(StructureRef source);

 private:
  // Few sources (the component classes of the counted bodies) and small
  // DAGs, so flat vectors with linear search beat a hash map.
  std::vector<std::pair<StructureRef, std::vector<NodeCount>>> by_source_;
};

/// Number of homomorphisms from the *connected* structure `from` (nonempty
/// domain) into the structure denoted by `expr`, evaluated via Lemma 4
/// without materializing `expr`. When `cache` is non-null, every leaf
/// |hom(from, base)| count routes through it (memoized across calls and
/// across the determinacy pipeline), and a non-null `memo` additionally
/// evaluates each DAG node once per source across the calls sharing it.
/// Without a cache the DAG is walked as a tree and `memo` is unused.
///
/// Throws std::invalid_argument when `from` is not connected or has an
/// empty domain (the sum/scalar laws of Lemma 4 require connectedness, and
/// empty-domain components — nullary facts — do not satisfy them).
BigInt CountHomsSymbolic(const Structure& from, const StructureExpr& expr,
                         HomCache* cache = nullptr,
                         SymbolicMemo* memo = nullptr);

/// Number of homomorphisms from an arbitrary structure into `expr`:
/// decomposes `from` into connected components and multiplies the
/// per-component symbolic counts (Lemma 4(5)). Same empty-domain-component
/// restriction and `cache` / `memo` semantics as above.
BigInt CountHomsSymbolicAny(const Structure& from, const StructureExpr& expr,
                            HomCache* cache = nullptr,
                            SymbolicMemo* memo = nullptr);

}  // namespace bagdet

#endif  // BAGDET_HOM_SYMBOLIC_H_
