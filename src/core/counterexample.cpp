#include "core/counterexample.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

/// z(i) as a machine integer (the proof of Lemma 56 needs integer
/// exponents for t^z to stay rational).
std::int64_t IntegerExponent(const Rational& e) {
  if (!e.IsInteger() || !e.numerator().FitsInt64()) {
    throw std::logic_error("SynthesizeCounterexample: non-integer exponent");
  }
  return e.numerator().ToInt64();
}

/// base^0, base^1, ..., base^max_exponent.
std::vector<BigInt> Powers(const BigInt& base, std::int64_t max_exponent) {
  std::vector<BigInt> powers{BigInt(1)};
  for (std::int64_t e = 1; e <= max_exponent; ++e) {
    powers.push_back(powers.back() * base);
  }
  return powers;
}

}  // namespace

BagCounterexample SynthesizeCounterexample(const InstanceAnalysis& analysis,
                                           const GoodBasis& basis) {
  const std::size_t k = analysis.basis_queries.size();
  BagCounterexample result;
  result.basis_structures = basis.structures;
  result.evaluation_matrix = basis.evaluation;

  // Fact 5: integer z with ⟨z, v⃗⟩ = 0 for all v ∈ V and ⟨z, q⃗⟩ ≠ 0.
  std::optional<Vec> z =
      OrthogonalWitness(analysis.view_vectors, analysis.query_vector);
  if (!z.has_value()) {
    throw std::logic_error(
        "SynthesizeCounterexample: query vector lies in the view span");
  }
  result.z = std::move(*z);

  // The cone C = M(R^k_{>=0}) of Definition 52; nonsingularity of the good
  // basis makes it simplicial with nonempty interior (Corollary 8).
  SimplicialCone cone(basis.evaluation);

  // Interior point p = M·𝟙, scaled to the integer vector P·p.
  Vec ones(k);
  for (std::size_t i = 0; i < k; ++i) ones[i] = Rational(1);
  const Vec p = cone.InteriorPoint();
  const BigInt p_scale = p.CommonDenominator();
  std::vector<BigInt> p_int(k);
  for (std::size_t i = 0; i < k; ++i) {
    p_int[i] = p[i].numerator() * (p_scale / p[i].denominator());
  }

  // Lemma 57: walk t = a/b = (2^j+1)/2^j toward 1 until p′ = t^z ∘ p falls
  // back inside C. Continuity at t = 1 (coordinates (𝟙) are strictly
  // positive) guarantees termination. Each step tests the signs of N·s for
  // the integer vector s = S_j·p′ (see counterexample.h).
  std::vector<std::int64_t> z_int(k);
  std::int64_t zmax = 0;
  std::int64_t zneg = 0;
  for (std::size_t i = 0; i < k; ++i) {
    z_int[i] = IntegerExponent(result.z[i]);
    zmax = std::max(zmax, z_int[i]);
    zneg = std::max(zneg, -z_int[i]);
  }
  BigInt b(1);
  std::vector<BigInt> a_pow, b_pow, s(k), w;
  for (std::int64_t j = 1;; ++j) {
    ExecCheckPoint("core.synthesize");
    b *= BigInt(2);
    a_pow = Powers(b + BigInt(1), zmax + zneg);
    b_pow = Powers(b, zmax + zneg);
    for (std::size_t i = 0; i < k; ++i) {
      s[i] = p_int[i] * a_pow[z_int[i] + zneg];
      s[i] *= b_pow[zmax - z_int[i]];
    }
    w = cone.ScaledCoordinates(s);
    if (std::none_of(w.begin(), w.end(),
                     [](const BigInt& wi) { return wi.IsNegative(); })) {
      break;
    }
    if (j > 4096) {
      throw std::logic_error(
          "SynthesizeCounterexample: perturbation search failed to converge");
    }
  }
  result.t = Rational(b + BigInt(1), b);
  // α′ = N·s / (L·S_j), normalized once per coordinate.
  const BigInt denominator =
      cone.inverse_scale() * p_scale * a_pow[zneg] * b_pow[zmax];
  Vec alpha_prime(k);
  for (std::size_t i = 0; i < k; ++i) {
    alpha_prime[i] = Rational(std::move(w[i]), denominator);
  }

  // Lemma 55: clear denominators so both coordinate vectors are natural.
  Rational c_prime{alpha_prime.CommonDenominator()};
  result.coeffs_d = ones * c_prime;
  result.coeffs_d_prime = alpha_prime * c_prime;

  auto build = [&](const Vec& coeffs) {
    std::vector<StructureExpr> terms;
    for (std::size_t i = 0; i < k; ++i) {
      terms.push_back(
          StructureExpr::Scalar(coeffs[i].numerator(), basis.structures[i]));
    }
    return StructureExpr::Sum(std::move(terms),
                              analysis.query.schema_ptr());
  };
  result.d = build(result.coeffs_d);
  result.d_prime = build(result.coeffs_d_prime);
  return result;
}

}  // namespace bagdet
