#include "core/basis.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "hom/symbolic.h"
#include "linalg/gauss.h"

namespace bagdet {

GoodBasisOutcome TryBuildGoodBasis(const InstanceAnalysis& analysis,
                                   const DistinguisherOptions& options) {
  const std::vector<Structure>& w = analysis.basis_queries;
  const std::size_t k = w.size();
  const auto schema = analysis.query.schema_ptr();
  GoodBasisOutcome outcome;
  GoodBasis basis;

  // The pipeline's shared memoized counter; hand-built analyses (tests,
  // callers that fill InstanceAnalysis manually) get a private one.
  std::shared_ptr<HomCache> local_cache;
  HomCache* cache = analysis.hom_cache.get();
  if (cache == nullptr) {
    local_cache = std::make_shared<HomCache>();
    cache = local_cache.get();
  }
  DistinguisherOptions dist_options = options;
  if (dist_options.hom_cache == nullptr) dist_options.hom_cache = cache;

  // Refs of the basis queries in the cache's pool. AnalyzeInstance already
  // interned them; reuse its refs when they belong to this cache.
  std::vector<StructureRef> w_refs;
  if (cache == analysis.hom_cache.get() && analysis.basis_refs.size() == k) {
    w_refs = analysis.basis_refs;
  } else {
    w_refs.reserve(k);
    for (const Structure& wi : w) w_refs.push_back(cache->Intern(wi));
  }

  // Step 1: distinguishers for every pair, deduplicated by interned
  // canonical ref (isomorphic candidates have identical hom counts, so one
  // representative per class suffices — no pairwise equality scans).
  std::vector<StructureRef> step1_refs;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      DistinguisherSearch search = SearchDistinguisher(w[i], w[j], dist_options);
      if (search.outcome == DistinguisherOutcome::kIsomorphic) {
        throw std::logic_error(
            "BuildGoodBasis: basis queries not pairwise non-isomorphic");
      }
      if (search.outcome == DistinguisherOutcome::kBoundsExhausted) {
        outcome.status.code = ExecCode::kResourceExhausted;
        outcome.status.kernel = "distinguisher";
        return outcome;
      }
      StructureRef ref = cache->pool().Intern(std::move(*search.distinguisher));
      if (std::find(step1_refs.begin(), step1_refs.end(), ref) ==
          step1_refs.end()) {
        step1_refs.push_back(ref);
        basis.step1.push_back(cache->pool().At(ref));
      }
    }
  }

  // Step 2: T must exceed every |hom(w_i, s(1)_j)| so the counts become
  // distinct radix-T numerals (Observation 45). These k × |S(1)| counts
  // are also exactly the leaf counts the evaluation matrix needs below,
  // so the scan doubles as a cache warm-up.
  BigInt t_radix(2);
  for (StructureRef wi : w_refs) {
    for (StructureRef s1 : step1_refs) {
      BigInt count = cache->Count(wi, s1);
      if (count >= t_radix) t_radix = count + BigInt(1);
    }
  }
  basis.radix = t_radix;
  std::vector<StructureExpr> terms;
  for (std::size_t j = 0; j < basis.step1.size(); ++j) {
    terms.push_back(StructureExpr::Scalar(
        BigInt::Pow(t_radix, static_cast<std::uint64_t>(j + 1)),
        StructureExpr::Base(basis.step1[j])));
  }
  basis.step2 = StructureExpr::Sum(std::move(terms), schema);

  // Steps 3 and 4: s_j = (s(2))^(j-1) × q.
  StructureExpr query_term = StructureExpr::Base(analysis.query.FrozenBody());
  for (std::size_t j = 0; j < k; ++j) {
    basis.structures.push_back(StructureExpr::Product(
        {StructureExpr::Power(basis.step2, static_cast<std::uint64_t>(j)),
         query_term},
        schema));
  }

  // Evaluation matrix M(i,j) = |hom(w_i, s_j)| via Lemma 4:
  //   |hom(w_i, s_j)| = |hom(w_i, s(2))|^j · |hom(w_i, q)|.
  // The symbolic evaluation's leaf counts were all warmed by the Step-2
  // scan, so each row costs only the BigInt radix arithmetic.
  basis.evaluation = Mat(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    BigInt base_count = CountHomsSymbolic(w[i], basis.step2, cache);
    BigInt q_count = cache->Count(w_refs[i], analysis.query.FrozenBody());
    BigInt power(1);
    for (std::size_t j = 0; j < k; ++j) {
      basis.evaluation.At(i, j) = Rational(power * q_count);
      power *= base_count;
    }
  }

  if (!IsNonsingular(basis.evaluation)) {
    throw std::logic_error(
        "BuildGoodBasis: evaluation matrix is singular (construction bug)");
  }
  outcome.basis = std::move(basis);
  return outcome;
}

GoodBasis BuildGoodBasis(const InstanceAnalysis& analysis,
                         const DistinguisherOptions& options) {
  GoodBasisOutcome outcome = TryBuildGoodBasis(analysis, options);
  if (!outcome.basis.has_value()) {
    throw std::runtime_error(
        "BuildGoodBasis: distinguisher search exhausted its bounds (" +
        outcome.status.ToString() +
        "); raise DistinguisherOptions::max_subset_domain");
  }
  return std::move(*outcome.basis);
}

}  // namespace bagdet
