// bagdet: the convex cone 𝒞 = M(R^k_{≥0}) of Definition 52 and the
// rational-interior-point machinery of Corollary 8 — the geometric stage
// on which the counterexample of Lemma 56 is built.

#ifndef BAGDET_LINALG_CONE_H_
#define BAGDET_LINALG_CONE_H_

#include <optional>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"

namespace bagdet {

/// The simplicial cone spanned by the columns of a *nonsingular* square
/// matrix M: 𝒞 = { M x : x ≥ 0 }. Nonsingularity makes membership a
/// single linear solve (and gives the cone nonempty interior, Corollary 8).
class SimplicialCone {
 public:
  /// Throws std::invalid_argument when `m` is singular or not square.
  explicit SimplicialCone(Mat m);

  const Mat& matrix() const { return matrix_; }
  const Mat& inverse() const { return inverse_; }
  std::size_t Dimension() const { return matrix_.rows(); }

  /// Preimage coordinates M⁻¹ p.
  Vec Coordinates(const Vec& point) const { return inverse_.Apply(point); }

  /// L, the least positive integer making L·M⁻¹ integral (the lcm of the
  /// denominators of M⁻¹).
  const BigInt& inverse_scale() const { return inverse_scale_; }

  /// N·x for the integer matrix N = L·M⁻¹ and an integer vector x, in
  /// integers only (N is built once, with the cone). Since L > 0,
  /// sign((N·x)_i) = sign((M⁻¹x)_i) and N·x / L = Coordinates(x): a sign
  /// test against the cone needs no rational normalization.
  std::vector<BigInt> ScaledCoordinates(const std::vector<BigInt>& x) const;

  /// p ∈ 𝒞 ⇔ M⁻¹ p ≥ 0.
  bool Contains(const Vec& point) const {
    return Coordinates(point).IsNonNegative();
  }

  /// p ∈ int 𝒞 ⇔ M⁻¹ p > 0 componentwise.
  bool StrictlyContains(const Vec& point) const;

  /// A rational point in the interior: M·𝟙 (Corollary 8 — the image of the
  /// strictly positive vector 𝟙 under a nonsingular map lies in the
  /// interior of the image of R^k_{≥0}).
  Vec InteriorPoint() const;

  /// Lemma 55 made explicit: for p ∈ 𝒞 ∩ Q^k, the least c ∈ N+ with
  /// c·p ∈ 𝒫 = { M u : u ∈ N^k } — the common denominator of M⁻¹ p.
  /// Returns std::nullopt when p ∉ 𝒞.
  std::optional<BigInt> ScaleIntoLattice(const Vec& point) const;

 private:
  Mat matrix_;
  Mat inverse_;
  BigInt inverse_scale_;
  std::vector<BigInt> scaled_inverse_;  ///< N = L·M⁻¹, row-major.
};

}  // namespace bagdet

#endif  // BAGDET_LINALG_CONE_H_
