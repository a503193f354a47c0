#include "hom/symbolic.h"

#include <stdexcept>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

using NodeCounts = std::vector<SymbolicMemo::NodeCount>;

template <typename LeafCount>
BigInt Eval(const StructureExpr& expr, const LeafCount& leaf_count,
            NodeCounts* memo);

/// Lemma-4 evaluation of one node from its children's counts.
template <typename LeafCount>
BigInt EvalNode(const StructureExpr& expr, const LeafCount& leaf_count,
                NodeCounts* memo) {
  switch (expr.kind()) {
    case StructureExpr::Kind::kBase:
      return leaf_count(expr.base());
    case StructureExpr::Kind::kSum: {
      BigInt total(0);
      for (const StructureExpr& child : expr.children()) {
        total += Eval(child, leaf_count, memo);
      }
      return total;
    }
    case StructureExpr::Kind::kProduct: {
      BigInt total(1);
      for (const StructureExpr& child : expr.children()) {
        total *= Eval(child, leaf_count, memo);
        if (total.IsZero()) return total;
      }
      return total;
    }
    case StructureExpr::Kind::kScalar:
      return expr.scalar() * Eval(expr.children()[0], leaf_count, memo);
    case StructureExpr::Kind::kPower:
      return BigInt::Pow(Eval(expr.children()[0], leaf_count, memo),
                         expr.exponent());
  }
  throw std::logic_error("CountHomsSymbolic: bad kind");
}

/// Lemma-4 evaluation over the expression DAG; `leaf_count` supplies
/// |hom(source, base)| for base structures (uncached CountHoms, or the
/// memoized HomCache lookup keyed by the source's interned ref). With a
/// `memo` (the node counts of this one source) each node is evaluated
/// once; without one the DAG is walked as a tree.
template <typename LeafCount>
BigInt Eval(const StructureExpr& expr, const LeafCount& leaf_count,
            NodeCounts* memo) {
  if (memo != nullptr) {
    for (const SymbolicMemo::NodeCount& entry : *memo) {
      if (entry.node == expr.id()) return entry.count;
    }
  }
  // Expression DAGs can be deep and wide (nested sums of products over
  // many leaves); a checkpoint per evaluated node keeps the walk governed
  // even when every leaf is a cache hit.
  ExecCheckPoint("hom.symbolic");
  BigInt count = EvalNode(expr, leaf_count, memo);
  if (memo != nullptr) memo->push_back({expr.id(), count});
  return count;
}

/// Cached variant: the source is an interned class ref, so every leaf
/// count is a memoized (from-ref, to-ref) lookup.
BigInt EvalRef(StructureRef from, const StructureExpr& expr, HomCache* cache,
               SymbolicMemo* memo) {
  return Eval(
      expr,
      [from, cache](const Structure& base) { return cache->Count(from, base); },
      memo != nullptr ? &memo->Of(from) : nullptr);
}

void CheckSymbolicSource(const Structure& from) {
  if (from.DomainSize() == 0 || !from.IsConnected()) {
    throw std::invalid_argument(
        "CountHomsSymbolic: source must be connected with nonempty domain");
  }
}

}  // namespace

std::vector<SymbolicMemo::NodeCount>& SymbolicMemo::Of(StructureRef source) {
  for (auto& [ref, counts] : by_source_) {
    if (ref == source) return counts;
  }
  return by_source_.emplace_back(source, NodeCounts()).second;
}

BigInt CountHomsSymbolic(const Structure& from, const StructureExpr& expr,
                         HomCache* cache, SymbolicMemo* memo) {
  CheckSymbolicSource(from);
  if (cache != nullptr) {
    return EvalRef(cache->pool().Intern(from), expr, cache, memo);
  }
  return Eval(
      expr,
      [&from](const Structure& base) { return CountHoms(from, base); },
      nullptr);
}

BigInt CountHomsSymbolicAny(const Structure& from, const StructureExpr& expr,
                            HomCache* cache, SymbolicMemo* memo) {
  BigInt product(1);
  if (cache != nullptr) {
    for (StructureRef ref : cache->ComponentRefs(from)) {
      CheckSymbolicSource(cache->pool().At(ref));
      product *= EvalRef(ref, expr, cache, memo);
      if (product.IsZero()) return product;
    }
    return product;
  }
  for (const Structure& component : from.Components()) {
    product *= CountHomsSymbolic(component, expr);
    if (product.IsZero()) return product;
  }
  return product;
}

}  // namespace bagdet
