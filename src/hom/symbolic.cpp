#include "hom/symbolic.h"

#include <stdexcept>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

/// Lemma-4 evaluation over the expression tree; `leaf_count` supplies
/// |hom(source, base)| for base structures (uncached CountHoms, or the
/// memoized HomCache lookup keyed by the source's interned ref).
template <typename LeafCount>
BigInt Eval(const StructureExpr& expr, const LeafCount& leaf_count) {
  // Expression trees can be deep and wide (nested sums of products over
  // many leaves); a checkpoint per node keeps the walk governed even when
  // every leaf is a cache hit.
  ExecCheckPoint("hom.symbolic");
  switch (expr.kind()) {
    case StructureExpr::Kind::kBase:
      return leaf_count(expr.base());
    case StructureExpr::Kind::kSum: {
      BigInt total(0);
      for (const StructureExpr& child : expr.children()) {
        total += Eval(child, leaf_count);
      }
      return total;
    }
    case StructureExpr::Kind::kProduct: {
      BigInt total(1);
      for (const StructureExpr& child : expr.children()) {
        total *= Eval(child, leaf_count);
        if (total.IsZero()) return total;
      }
      return total;
    }
    case StructureExpr::Kind::kScalar:
      return expr.scalar() * Eval(expr.children()[0], leaf_count);
    case StructureExpr::Kind::kPower:
      return BigInt::Pow(Eval(expr.children()[0], leaf_count),
                         expr.exponent());
  }
  throw std::logic_error("CountHomsSymbolic: bad kind");
}

/// Cached variant: the source is an interned class ref, so every leaf
/// count is a memoized (from-ref, to-ref) lookup.
BigInt EvalRef(StructureRef from, const StructureExpr& expr, HomCache* cache) {
  return Eval(expr, [from, cache](const Structure& base) {
    return cache->Count(from, base);
  });
}

void CheckSymbolicSource(const Structure& from) {
  if (from.DomainSize() == 0 || !from.IsConnected()) {
    throw std::invalid_argument(
        "CountHomsSymbolic: source must be connected with nonempty domain");
  }
}

}  // namespace

BigInt CountHomsSymbolic(const Structure& from, const StructureExpr& expr,
                         HomCache* cache) {
  CheckSymbolicSource(from);
  if (cache != nullptr) return EvalRef(cache->Intern(from), expr, cache);
  return Eval(expr, [&from](const Structure& base) {
    return CountHoms(from, base);
  });
}

BigInt CountHomsSymbolicAny(const Structure& from, const StructureExpr& expr,
                            HomCache* cache) {
  BigInt product(1);
  if (cache != nullptr) {
    for (StructureRef ref : cache->ComponentRefs(from)) {
      CheckSymbolicSource(cache->pool().At(ref));
      product *= EvalRef(ref, expr, cache);
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
