#include <gtest/gtest.h>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "reference/oracles.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(VecTest, ArithmeticAndPredicates) {
  Vec a{Q(1), Q(2), Q(3)};
  Vec b{Q(4), Q(-2), Q(0)};
  EXPECT_EQ(a + b, (Vec{Q(5), Q(0), Q(3)}));
  EXPECT_EQ(a - b, (Vec{Q(-3), Q(4), Q(3)}));
  EXPECT_EQ(a * Q(2), (Vec{Q(2), Q(4), Q(6)}));
  EXPECT_EQ(Vec::Dot(a, b), Q(0));
  EXPECT_TRUE(a.IsNonNegative());
  EXPECT_FALSE(b.IsNonNegative());
  EXPECT_TRUE((Vec{Q(0), Q(0)}).IsZero());
}

TEST(VecTest, CommonDenominatorIsLcm) {
  Vec v{Q(1, 2), Q(1, 3), Q(5)};
  EXPECT_EQ(v.CommonDenominator(), BigInt(6));
  EXPECT_TRUE((v * Rational(BigInt(6))).IsIntegral());
  EXPECT_EQ((Vec{Q(2), Q(3)}).CommonDenominator(), BigInt(1));
}

TEST(VecTest, SizeMismatchThrows) {
  Vec a{Q(1)};
  Vec b{Q(1), Q(2)};
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(Vec::Dot(a, b), std::invalid_argument);
}

TEST(MatTest, IdentityAndMultiply) {
  Mat id = Mat::Identity(3);
  Mat m{{Q(1), Q(2), Q(0)}, {Q(0), Q(1), Q(4)}, {Q(5), Q(0), Q(1)}};
  EXPECT_EQ(id.Multiply(m), m);
  EXPECT_EQ(m.Multiply(id), m);
  Vec v{Q(1), Q(1), Q(1)};
  EXPECT_EQ(m.Apply(v), (Vec{Q(3), Q(5), Q(6)}));
}

TEST(MatTest, TransposeAndRowsCols) {
  Mat m{{Q(1), Q(2)}, {Q(3), Q(4)}, {Q(5), Q(6)}};
  Mat t = m.Transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(m.Row(1), (Vec{Q(3), Q(4)}));
  EXPECT_EQ(m.Col(1), (Vec{Q(2), Q(4), Q(6)}));
  EXPECT_EQ(t.At(0, 2), Q(5));
}

TEST(MatStorageTest, SwapRowsAndReserve) {
  Mat m{{Q(1), Q(2)}, {Q(3), Q(4)}, {Q(5), Q(6)}};
  m.SwapRows(0, 2);
  EXPECT_EQ(m.Row(0), (Vec{Q(5), Q(6)}));
  EXPECT_EQ(m.Row(2), (Vec{Q(1), Q(2)}));
  m.SwapRows(1, 1);  // No-op.
  EXPECT_EQ(m.Row(1), (Vec{Q(3), Q(4)}));
  Mat n;
  n.Reserve(4, 4);  // Shape unchanged; just capacity.
  EXPECT_EQ(n.rows(), 0u);
  EXPECT_EQ(n.cols(), 0u);
}

TEST(MatTest, FromColumnsAndRows) {
  std::vector<Vec> cols = {{Q(1), Q(2)}, {Q(3), Q(4)}};
  Mat m = Mat::FromColumns(cols);
  EXPECT_EQ(m.At(0, 1), Q(3));
  EXPECT_EQ(Mat::FromRows(cols).At(0, 1), Q(2));
}

TEST(GaussTest, RrefRankAndPivots) {
  Mat m{{Q(1), Q(2), Q(3)}, {Q(2), Q(4), Q(6)}, {Q(1), Q(0), Q(1)}};
  Rref rref = ReduceToRref(m);
  EXPECT_EQ(rref.rank, 2u);
  EXPECT_EQ(rref.pivots, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(Rank(m), 2u);
}

TEST(GaussTest, DeterminantAndNonsingularity) {
  Mat m{{Q(2), Q(4)}, {Q(1), Q(2)}};  // The paper's Example 39 matrix M_W.
  EXPECT_EQ(Determinant(m), Q(0));
  EXPECT_FALSE(IsNonsingular(m));
  Mat n{{Q(1), Q(4)}, {Q(1), Q(2)}};  // Example 54's M_S.
  EXPECT_EQ(Determinant(n), Q(-2));
  EXPECT_TRUE(IsNonsingular(n));
}

TEST(GaussTest, DeterminantRequiresSquare) {
  Mat m(2, 3);
  EXPECT_THROW(Determinant(m), std::invalid_argument);
}

TEST(GaussTest, InverseRoundTrip) {
  Mat m{{Q(1), Q(4)}, {Q(1), Q(2)}};
  std::optional<Mat> inv = Inverse(m);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(m.Multiply(*inv), Mat::Identity(2));
  EXPECT_EQ(inv->Multiply(m), Mat::Identity(2));
  EXPECT_FALSE(Inverse(Mat{{Q(2), Q(4)}, {Q(1), Q(2)}}).has_value());
}

TEST(GaussTest, SolveConsistentSystem) {
  Mat a{{Q(1), Q(1)}, {Q(1), Q(-1)}};
  Vec b{Q(3), Q(1)};
  std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);
  EXPECT_EQ(*x, (Vec{Q(2), Q(1)}));
}

TEST(GaussTest, SolveInconsistentReturnsNullopt) {
  Mat a{{Q(1), Q(2)}, {Q(2), Q(4)}};
  Vec b{Q(1), Q(3)};
  EXPECT_FALSE(SolveLinearSystem(a, b).has_value());
}

TEST(GaussTest, SolveUnderdeterminedPicksParticular) {
  Mat a{{Q(1), Q(2), Q(3)}};
  Vec b{Q(6)};
  std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);
}

TEST(GaussTest, NullspaceBasisSpansKernel) {
  Mat a{{Q(1), Q(2), Q(3)}, {Q(2), Q(4), Q(6)}};
  std::vector<Vec> basis = NullspaceBasis(a);
  EXPECT_EQ(basis.size(), 2u);
  for (const Vec& v : basis) {
    EXPECT_TRUE(a.Apply(v).IsZero());
    EXPECT_FALSE(v.IsZero());
  }
  EXPECT_TRUE(NullspaceBasis(Mat::Identity(3)).empty());
}

TEST(GaussTest, SpanMembershipWithWitness) {
  std::vector<Vec> basis = {{Q(2), Q(1), Q(3)}, {Q(5), Q(2), Q(7)}};
  Vec target{Q(1), Q(1), Q(2)};  // Example 32: q⃗ = 3·v⃗1 − v⃗2.
  SpanMembership result = TestSpanMembership(basis, target);
  ASSERT_TRUE(result.in_span);
  EXPECT_EQ(result.coefficients, (Vec{Q(3), Q(-1)}));
  Vec outside{Q(1), Q(0), Q(0)};
  EXPECT_FALSE(TestSpanMembership(basis, outside).in_span);
}

TEST(GaussTest, SpanMembershipEdgeCases) {
  // Zero target is in any span, even the empty one.
  EXPECT_TRUE(TestSpanMembership({}, Vec{Q(0), Q(0)}).in_span);
  EXPECT_FALSE(TestSpanMembership({}, Vec{Q(1)}).in_span);
  // Dependent basis still yields a witness.
  std::vector<Vec> dependent = {{Q(1), Q(0)}, {Q(2), Q(0)}, {Q(0), Q(1)}};
  SpanMembership r = TestSpanMembership(dependent, Vec{Q(4), Q(5)});
  ASSERT_TRUE(r.in_span);
  Vec reconstructed(2);
  for (std::size_t i = 0; i < dependent.size(); ++i) {
    reconstructed += dependent[i] * r.coefficients[i];
  }
  EXPECT_EQ(reconstructed, (Vec{Q(4), Q(5)}));
}

TEST(GaussTest, OrthogonalWitnessFact5) {
  std::vector<Vec> basis = {{Q(1), Q(0), Q(1)}, {Q(0), Q(1), Q(1)}};
  Vec target{Q(0), Q(0), Q(1)};  // Not in the span.
  std::optional<Vec> z = OrthogonalWitness(basis, target);
  ASSERT_TRUE(z.has_value());
  for (const Vec& u : basis) EXPECT_EQ(Vec::Dot(*z, u), Q(0));
  EXPECT_NE(Vec::Dot(*z, target), Q(0));
  EXPECT_TRUE(z->IsIntegral()) << "Lemma 56 needs z ∈ Z^k";
}

TEST(GaussTest, OrthogonalWitnessAbsentWhenInSpan) {
  std::vector<Vec> basis = {{Q(1), Q(0)}, {Q(0), Q(1)}};
  EXPECT_FALSE(OrthogonalWitness(basis, Vec{Q(2), Q(3)}).has_value());
}

TEST(GaussTest, OrthogonalWitnessEmptyBasis) {
  std::optional<Vec> z = OrthogonalWitness({}, Vec{Q(0), Q(7)});
  ASSERT_TRUE(z.has_value());
  EXPECT_NE(Vec::Dot(*z, Vec{Q(0), Q(7)}), Q(0));
}

TEST(GaussTest, VandermondeNonsingularLemma46) {
  // Lemma 46: pairwise distinct nodes => nonsingular.
  Mat v = Vandermonde({Q(1), Q(2), Q(3), Q(5)});
  EXPECT_TRUE(IsNonsingular(v));
  EXPECT_EQ(v.At(2, 3), Q(27));
  // Repeated nodes => singular.
  EXPECT_FALSE(IsNonsingular(Vandermonde({Q(1), Q(2), Q(2)})));
  // 0^0 = 1 convention puts a 1 in the first column even for node 0.
  Mat with_zero = Vandermonde({Q(0), Q(1)});
  EXPECT_EQ(with_zero.At(0, 0), Q(1));
  EXPECT_TRUE(IsNonsingular(with_zero));
}

class GaussRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaussRandomTest, InverseAndSolveConsistency) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t n = 1 + rng.Below(5);
    Mat m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.At(r, c) = Q(rng.Range(-5, 5));
      }
    }
    std::optional<Mat> inv = Inverse(m);
    EXPECT_EQ(inv.has_value(), IsNonsingular(m));
    EXPECT_EQ(inv.has_value(), !Determinant(m).IsZero());
    if (inv.has_value()) {
      EXPECT_EQ(m.Multiply(*inv), Mat::Identity(n));
      Vec b(n);
      for (std::size_t i = 0; i < n; ++i) b[i] = Q(rng.Range(-9, 9));
      std::optional<Vec> x = SolveLinearSystem(m, b);
      ASSERT_TRUE(x.has_value());
      EXPECT_EQ(*x, inv->Apply(b));
    }
  }
}

TEST_P(GaussRandomTest, RankNullityTheorem) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t rows = 1 + rng.Below(4);
    std::size_t cols = 1 + rng.Below(5);
    Mat m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m.At(r, c) = Q(rng.Range(-3, 3));
      }
    }
    EXPECT_EQ(Rank(m) + NullspaceBasis(m).size(), cols);
    EXPECT_EQ(Rank(m), Rank(m.Transposed()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaussRandomTest,
                         ::testing::Values(21, 22, 23, 24));

// --- Public entry points against independent oracles -----------------------
//
// Each operation is checked by a property that does not reuse its own
// answer: the RREF by its shape and its row space, the inverse by the
// product, the rank by the determinant (and the determinant by its
// scaling identity), solutions and kernel vectors by substitution. The
// matrices come from the shared generators in tests/test_matrices.h;
// BAGDET_DIFF_ITERS scales the case counts, and a failing case's seed is
// appended to BAGDET_FAIL_SEED_FILE.

/// Draws one matrix from the regime `regime` (0..3): small rationals,
/// 128-bit low-rank integers, Hilbert-like, sparse. All are at most 7×7,
/// the size of the pipeline's largest evaluation matrix.
Mat OracleMatrix(int regime, Rng* rng) {
  const std::size_t rows = 1 + rng->Below(7);
  const std::size_t cols = 1 + rng->Below(7);
  switch (regime) {
    case 0:
      return testmat::RandomRationalMatrix(rng, rows, cols, 12, 12);
    case 1: {
      const std::size_t n = 2 + rng->Below(6);
      return testmat::RandomBigLowRankMatrix(rng, n, 1 + rng->Below(n), 4);
    }
    case 2:
      return testmat::HilbertLikeMatrix(1 + rng->Below(7), rng->Below(3));
    default:
      return testmat::RandomSparseMatrix(rng, rows, cols, 1, 3, -6, 6);
  }
}

Mat StackRows(const Mat& top, const Mat& bottom) {
  Mat out(top.rows() + bottom.rows(), top.cols());
  for (std::size_t r = 0; r < top.rows(); ++r) {
    for (std::size_t c = 0; c < top.cols(); ++c) out.At(r, c) = top.At(r, c);
  }
  for (std::size_t r = 0; r < bottom.rows(); ++r) {
    for (std::size_t c = 0; c < top.cols(); ++c) {
      out.At(top.rows() + r, c) = bottom.At(r, c);
    }
  }
  return out;
}

void ExpectRrefShape(const Mat& a, const Rref& rref) {
  ASSERT_EQ(rref.matrix.rows(), a.rows());
  ASSERT_EQ(rref.matrix.cols(), a.cols());
  ASSERT_EQ(rref.pivots.size(), rref.rank);
  for (std::size_t i = 0; i < rref.rank; ++i) {
    const std::size_t p = rref.pivots[i];
    if (i > 0) EXPECT_LT(rref.pivots[i - 1], p);
    for (std::size_t c = 0; c < p; ++c) {
      EXPECT_TRUE(rref.matrix.At(i, c).IsZero()) << "row " << i;
    }
    for (std::size_t r = 0; r < a.rows(); ++r) {
      EXPECT_EQ(rref.matrix.At(r, p), Q(r == i ? 1 : 0)) << "pivot col " << p;
    }
  }
  for (std::size_t r = rref.rank; r < a.rows(); ++r) {
    EXPECT_TRUE(rref.matrix.Row(r).IsZero()) << "row " << r;
  }
  // Same row space: stacking the RREF under A adds no rank, and the RREF
  // alone already has all of it.
  EXPECT_EQ(Rank(StackRows(a, rref.matrix)), rref.rank);
  EXPECT_EQ(Rank(rref.matrix), rref.rank);
}

void CheckAgainstOracles(const Mat& a, Rng* rng) {
  const Rref rref = ReduceToRref(a);
  ExpectRrefShape(a, rref);
  const std::size_t rank = Rank(a);
  EXPECT_EQ(rank, rref.rank);
  EXPECT_EQ(rank, Rank(a.Transposed()));

  // Kernel: cols - rank independent vectors, each with A·v = 0.
  const std::vector<Vec> kernel = NullspaceBasis(a);
  EXPECT_EQ(kernel.size(), a.cols() - rank);
  for (const Vec& v : kernel) EXPECT_TRUE(a.Apply(v).IsZero());
  if (!kernel.empty()) EXPECT_EQ(Rank(Mat::FromRows(kernel)), kernel.size());

  // A consistent right-hand side b = A·x0 must be solved exactly.
  Vec x0(a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) x0[i] = Q(rng->Range(-4, 4));
  const Vec b = a.Apply(x0);
  const std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);

  if (a.rows() != a.cols()) {
    EXPECT_FALSE(IsNonsingular(a));
    EXPECT_FALSE(Inverse(a).has_value());
    return;
  }
  const std::size_t n = a.rows();
  const Rational det = Determinant(a);
  if (n <= 10) EXPECT_EQ(det, reference::CofactorDeterminant(a));
  const bool det_nonzero = !det.IsZero();
  EXPECT_EQ(IsNonsingular(a), rank == n);
  EXPECT_EQ(det_nonzero, rank == n);
  const std::optional<Mat> inv = Inverse(a);
  EXPECT_EQ(inv.has_value(), det_nonzero);
  if (inv.has_value()) {
    EXPECT_EQ(a.Multiply(*inv), Mat::Identity(n));
    EXPECT_EQ(inv->Multiply(a), Mat::Identity(n));
  }
}

TEST(GaussOracleTest, EntryPointsSatisfyIndependentOracles) {
  const int iters = 25 * testmat::DiffIterScale();
  for (int regime = 0; regime < 4; ++regime) {
    for (int i = 0; i < iters; ++i) {
      const std::uint64_t seed = 1000u * static_cast<std::uint64_t>(regime) +
                                 static_cast<std::uint64_t>(i);
      SCOPED_TRACE(::testing::Message() << "regime " << regime << " seed "
                                        << seed);
      const bool failed_before = ::testing::Test::HasFailure();
      Rng rng(seed);
      CheckAgainstOracles(OracleMatrix(regime, &rng), &rng);
      if (!failed_before && ::testing::Test::HasFailure()) {
        testmat::RecordFailureSeed(seed);
      }
    }
  }
}

TEST(GaussOracleTest, DeterminantScalesByTwoToTheN) {
  // det(A) = 2^n · det(A/2); A is integral with an odd corner, so A/2 has
  // a half-integer entry. det(A) itself is checked against the cofactor
  // expansion of tests/reference/oracles.h.
  const Rational half = Q(1, 2);
  Rng rng(7);
  const int iters = 60 * testmat::DiffIterScale();
  for (int i = 0; i < iters; ++i) {
    const std::size_t n = 2 + rng.Below(6);
    Mat a;
    switch (rng.Below(3)) {
      case 0:
        a = testmat::RandomIntMatrix(&rng, n, n, -8, 8);
        break;
      case 1:
        a = testmat::RandomBigMatrix(&rng, n, n, 4);
        break;
      default:
        a = testmat::RandomBigLowRankMatrix(&rng, n, 1 + rng.Below(n), 4);
        break;
    }
    a.At(0, 0) = a.At(0, 0) * Q(2) + Q(1);  // Odd, so A/2 is not integral.
    Mat scaled(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) scaled.At(r, c) = a.At(r, c) * half;
    }
    const Rational det = Determinant(a);
    EXPECT_TRUE(det.IsInteger());
    EXPECT_EQ(det, reference::CofactorDeterminant(a)) << "case " << i;
    EXPECT_EQ(det,
              Determinant(scaled) * Rational(BigInt::Pow(BigInt(2), n)))
        << "case " << i;
    EXPECT_EQ(det.IsZero(), Rank(a) < n) << "case " << i;
  }
}

}  // namespace
}  // namespace bagdet
