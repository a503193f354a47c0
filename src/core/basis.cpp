#include "core/basis.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "linalg/gauss.h"

namespace bagdet {

GoodBasisOutcome TryBuildGoodBasis(const InstanceAnalysis& analysis,
                                   const DistinguisherOptions& options) {
  const std::vector<Structure>& w = analysis.basis_queries;
  const std::size_t k = w.size();
  const auto schema = analysis.query.schema_ptr();
  GoodBasisOutcome outcome;
  GoodBasis basis;

  // The pipeline's shared memoized counter, in whose pool AnalyzeInstance
  // interned the basis queries as `basis_refs`.
  HomCache* cache = analysis.hom_cache.get();
  if (cache == nullptr) {
    throw std::invalid_argument(
        "TryBuildGoodBasis: analysis has no hom cache (build it with "
        "AnalyzeInstance)");
  }
  const std::vector<StructureRef>& w_refs = analysis.basis_refs;
  DistinguisherOptions dist_options = options;
  if (dist_options.hom_cache == nullptr) dist_options.hom_cache = cache;

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
      StructureRef ref = cache->pool().Intern(*search.distinguisher);
      if (std::find(step1_refs.begin(), step1_refs.end(), ref) ==
          step1_refs.end()) {
        step1_refs.push_back(ref);
        basis.step1.push_back(cache->pool().At(ref));
      }
    }
  }

  // Step 2: T must exceed every |hom(w_i, s(1)_j)| so the counts become
  // distinct radix-T numerals (Observation 45). These k × |S(1)| counts
  // are kept: the evaluation matrix below is built from them.
  BigInt t_radix(2);
  std::vector<std::vector<BigInt>> step1_counts(k);
  for (std::size_t i = 0; i < k; ++i) {
    step1_counts[i].reserve(step1_refs.size());
    for (StructureRef s1 : step1_refs) {
      BigInt count = cache->Count(w_refs[i], s1);
      if (count >= t_radix) t_radix = count + BigInt(1);
      step1_counts[i].push_back(std::move(count));
    }
  }
  basis.radix = t_radix;
  std::vector<BigInt> radix_powers;  // T^(j+1)
  std::vector<StructureExpr> terms;
  for (std::size_t j = 0; j < basis.step1.size(); ++j) {
    radix_powers.push_back(
        BigInt::Pow(t_radix, static_cast<std::uint64_t>(j + 1)));
    terms.push_back(StructureExpr::Scalar(
        radix_powers[j], StructureExpr::Base(basis.step1[j])));
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

  // Evaluation matrix M(i,j) = |hom(w_i, s_j)| via Lemma 4 (w_i is
  // connected):
  //   |hom(w_i, s(2))| = Σ_j T^(j+1) · |hom(w_i, s(1)_j)|,
  //   |hom(w_i, s_j)|  = |hom(w_i, s(2))|^j · |hom(w_i, q)|,
  // so each row costs only the radix arithmetic over the Step-2 counts.
  basis.evaluation = Mat(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    BigInt base_count(0);
    for (std::size_t j = 0; j < radix_powers.size(); ++j) {
      base_count.MulAdd(radix_powers[j], step1_counts[i][j]);
    }
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
