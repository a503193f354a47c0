#include "linalg/cone.h"

#include <stdexcept>

namespace bagdet {

SimplicialCone::SimplicialCone(Mat m) : matrix_(std::move(m)) {
  std::optional<Mat> inverse = Inverse(matrix_);
  if (!inverse.has_value()) {
    throw std::invalid_argument("SimplicialCone: matrix is singular");
  }
  inverse_ = std::move(*inverse);

  // N = L·M⁻¹, with L the lcm of the denominators of M⁻¹.
  const std::size_t n = Dimension();
  inverse_scale_ = BigInt(1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const BigInt& d = inverse_.At(r, c).denominator();
      inverse_scale_ = inverse_scale_ / BigInt::Gcd(inverse_scale_, d) * d;
    }
  }
  scaled_inverse_.reserve(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const Rational& e = inverse_.At(r, c);
      scaled_inverse_.push_back(e.numerator() *
                                (inverse_scale_ / e.denominator()));
    }
  }
}

std::vector<BigInt> SimplicialCone::ScaledCoordinates(
    const std::vector<BigInt>& x) const {
  const std::size_t n = Dimension();
  if (x.size() != n) {
    throw std::invalid_argument("SimplicialCone: dimension mismatch");
  }
  std::vector<BigInt> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      out[r].MulAdd(scaled_inverse_[r * n + c], x[c]);
    }
  }
  return out;
}

bool SimplicialCone::StrictlyContains(const Vec& point) const {
  Vec coords = Coordinates(point);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i].Sign() <= 0) return false;
  }
  return true;
}

Vec SimplicialCone::InteriorPoint() const {
  Vec ones(Dimension());
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = Rational(1);
  return matrix_.Apply(ones);
}

std::optional<BigInt> SimplicialCone::ScaleIntoLattice(
    const Vec& point) const {
  Vec coords = Coordinates(point);
  if (!coords.IsNonNegative()) return std::nullopt;
  return coords.CommonDenominator();
}

}  // namespace bagdet
