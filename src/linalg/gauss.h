// bagdet: exact Gaussian elimination and the linear-algebra facts the paper
// relies on (Fact 5: orthogonal witnesses; Lemma 46: Vandermonde
// nonsingularity; span tests behind the Main Lemma 31).
//
// Every operation runs exact elimination over Q. Pivots are chosen by the
// shortest numerator+denominator, which curbs coefficient growth; the
// pipeline's matrices are small (span tests at most 10×10 with ≤4-bit
// entries, evaluation matrices at most 7×7 with ≤256-bit entries), so one
// path is enough. Rank, IsNonsingular, SolveLinearSystem, NullspaceBasis,
// TestSpanMembership, OrthogonalWitness and Inverse all build on
// ReduceToRref; Determinant runs forward elimination over Q.

#ifndef BAGDET_LINALG_GAUSS_H_
#define BAGDET_LINALG_GAUSS_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace bagdet {

/// Result of reducing a matrix to reduced row echelon form.
struct Rref {
  Mat matrix;                      ///< The RREF itself.
  std::vector<std::size_t> pivots; ///< Pivot column per pivot row.
  std::size_t rank = 0;
};

/// Reduced row echelon form.
Rref ReduceToRref(Mat m);

/// Rank of a matrix.
std::size_t Rank(const Mat& m);

/// True iff the square matrix is nonsingular.
bool IsNonsingular(const Mat& m);

/// Determinant of a square matrix, by exact forward elimination over Q.
Rational Determinant(Mat m);

/// Inverse of a square nonsingular matrix (Gauss–Jordan on [A | I]);
/// std::nullopt when singular or not square.
std::optional<Mat> Inverse(const Mat& m);

/// One solution x of A x = b, or std::nullopt when inconsistent. When the
/// system is underdetermined the free variables are set to zero.
std::optional<Vec> SolveLinearSystem(const Mat& a, const Vec& b);

/// Basis of the (right) nullspace { x : A x = 0 }.
std::vector<Vec> NullspaceBasis(const Mat& a);

/// Result of a span-membership test.
struct SpanMembership {
  bool in_span = false;
  /// When in_span: coefficients c with target = sum_i c[i] * basis[i].
  Vec coefficients;
};

/// Tests whether `target` lies in span_Q(basis) and returns witness
/// coefficients when it does. The basis may be linearly dependent.
SpanMembership TestSpanMembership(const std::vector<Vec>& basis,
                                  const Vec& target);

/// Fact 5 made effective: given vectors u_1..u_n and u with
/// u ∉ span{u_i}, returns an *integer* vector z orthogonal to every u_i
/// but not to u. Returns std::nullopt when u ∈ span{u_i} (no such z).
std::optional<Vec> OrthogonalWitness(const std::vector<Vec>& basis,
                                     const Vec& target);

/// Builds the Vandermonde matrix A(i,j) = nodes[i]^j (j = 0..n-1). By
/// Lemma 46 it is nonsingular whenever the nodes are pairwise distinct.
Mat Vandermonde(const std::vector<Rational>& nodes);

}  // namespace bagdet

#endif  // BAGDET_LINALG_GAUSS_H_
