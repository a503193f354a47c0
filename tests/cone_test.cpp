#include "linalg/cone.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace bagdet {
namespace {

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(ConeTest, RejectsSingularMatrices) {
  EXPECT_THROW(SimplicialCone(Mat{{Q(2), Q(4)}, {Q(1), Q(2)}}),
               std::invalid_argument);
  EXPECT_THROW(SimplicialCone(Mat(2, 3)), std::invalid_argument);
}

TEST(ConeTest, MembershipExample54) {
  // The Example-54 matrix [[1,1],[1,2]].
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  // Columns and their nonnegative combinations are inside.
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(1)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(2)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(2), Q(3)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(0), Q(0)}));
  // Below the first generator's ray: outside.
  EXPECT_FALSE(cone.Contains(Vec{Q(1), Q(0)}));
  EXPECT_FALSE(cone.Contains(Vec{Q(-1), Q(-1)}));
  // Boundary points are contained but not strictly.
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(1)}));
  EXPECT_FALSE(cone.StrictlyContains(Vec{Q(1), Q(1)}));
  EXPECT_TRUE(cone.StrictlyContains(Vec{Q(2), Q(3)}));
}

TEST(ConeTest, InteriorPointIsStrictlyInside) {
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  Vec p = cone.InteriorPoint();
  EXPECT_EQ(p, (Vec{Q(2), Q(3)}));
  EXPECT_TRUE(cone.StrictlyContains(p));
}

TEST(ConeTest, ScaleIntoLatticeLemma55) {
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  // p = M · (1/2, 1/3): coordinates have denominators 2 and 3 -> c = 6.
  Vec p = cone.matrix().Apply(Vec{Q(1, 2), Q(1, 3)});
  std::optional<BigInt> c = cone.ScaleIntoLattice(p);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, BigInt(6));
  // c·p has natural coordinates.
  Vec scaled_coords = cone.Coordinates(p * Rational(*c));
  EXPECT_TRUE(scaled_coords.IsIntegral());
  EXPECT_TRUE(scaled_coords.IsNonNegative());
  // Points outside the cone cannot be scaled in.
  EXPECT_FALSE(cone.ScaleIntoLattice(Vec{Q(1), Q(0)}).has_value());
}

/// The randomized nonsingular matrices of the membership tests: n×n with
/// n in [2, 4] and entries in [0, 6], drawn from `rng`.
Mat RandomNonsingular(Rng* rng) {
  std::size_t n = 2 + rng->Below(3);
  Mat m(n, n);
  do {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.At(r, c) = Q(rng->Range(0, 6));
      }
    }
  } while (!IsNonsingular(m));
  return m;
}

TEST(ConeTest, RandomizedMembershipConsistency) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    Mat m = RandomNonsingular(&rng);
    const std::size_t n = m.rows();
    SimplicialCone cone(m);
    // Nonnegative combinations are members; their coordinates round-trip.
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Q(rng.Range(0, 5));
    Vec p = m.Apply(x);
    EXPECT_TRUE(cone.Contains(p));
    EXPECT_EQ(cone.Coordinates(p), x);
    // A combination with a negative coefficient is outside (coordinates
    // are unique for simplicial cones).
    Vec y = x;
    y[rng.Below(n)] = Q(-1 - static_cast<std::int64_t>(rng.Below(3)));
    EXPECT_FALSE(cone.Contains(m.Apply(y)));
  }
}

/// Column c of N = L·M⁻¹, read as N·e_c.
std::vector<BigInt> ScaledInverseColumn(const SimplicialCone& cone,
                                        std::size_t c) {
  std::vector<BigInt> unit(cone.Dimension(), BigInt(0));
  unit[c] = BigInt(1);
  return cone.ScaledCoordinates(unit);
}

TEST(ConeTest, ScaledInverseIsLeastIntegralMultiple) {
  // M = [[2,0],[0,3]]: M⁻¹ = diag(1/2, 1/3), L = 6, N = diag(3, 2).
  SimplicialCone diag(Mat{{Q(2), Q(0)}, {Q(0), Q(3)}});
  EXPECT_EQ(diag.inverse_scale(), BigInt(6));
  EXPECT_EQ(ScaledInverseColumn(diag, 0),
            (std::vector<BigInt>{BigInt(3), BigInt(0)}));
  EXPECT_EQ(ScaledInverseColumn(diag, 1),
            (std::vector<BigInt>{BigInt(0), BigInt(2)}));
  // Unimodular M: the inverse is already integral, so L = 1.
  SimplicialCone unimodular(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  EXPECT_EQ(unimodular.inverse_scale(), BigInt(1));

  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    SimplicialCone cone(RandomNonsingular(&rng));
    const std::size_t n = cone.Dimension();
    const BigInt& scale = cone.inverse_scale();
    ASSERT_GT(scale, BigInt(0));
    // N = L·M⁻¹ entrywise, and L is least: a common factor of L and every
    // entry of N would leave (L/g)·M⁻¹ integral too.
    BigInt common = scale;
    for (std::size_t c = 0; c < n; ++c) {
      const std::vector<BigInt> column = ScaledInverseColumn(cone, c);
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(Rational(column[r]),
                  cone.inverse().At(r, c) * Rational(scale));
        common = BigInt::Gcd(common, column[r]);
      }
    }
    EXPECT_EQ(common, BigInt(1));
  }
}

TEST(ConeTest, ScaledCoordinatesSignsMatchCoordinates) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    Mat m = RandomNonsingular(&rng);
    const std::size_t n = m.rows();
    SimplicialCone cone(m);
    std::vector<Vec> points;
    points.push_back(Vec(n));  // x = 0.
    // Boundary points: nonnegative combinations with a zero coefficient.
    for (std::size_t zero = 0; zero < n; ++zero) {
      Vec u(n);
      for (std::size_t i = 0; i < n; ++i) {
        u[i] = i == zero ? Q(0) : Q(rng.Range(1, 5));
      }
      points.push_back(m.Apply(u));
    }
    // Interior points, points outside, and arbitrary integer points.
    for (int draw = 0; draw < 8; ++draw) {
      Vec u(n);
      for (std::size_t i = 0; i < n; ++i) u[i] = Q(rng.Range(-3, 5));
      points.push_back(m.Apply(u));
      points.push_back(u);
    }
    for (const Vec& point : points) {
      // Scale the point to an integer vector; signs are scale-invariant.
      const BigInt denominator = point.CommonDenominator();
      std::vector<BigInt> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = (point[i] * Rational(denominator)).numerator();
      }
      const std::vector<BigInt> scaled = cone.ScaledCoordinates(x);
      const Vec coords = cone.Coordinates(point);
      ASSERT_EQ(scaled.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scaled[i].Sign(), coords[i].Sign())
            << "point " << point << " coordinate " << i;
        EXPECT_EQ(Rational(scaled[i], cone.inverse_scale() * denominator),
                  coords[i]);
      }
    }
  }
}

}  // namespace
}  // namespace bagdet
