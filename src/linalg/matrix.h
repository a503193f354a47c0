// bagdet: dense vectors and matrices over exact rationals.
//
// The determinacy pipeline works in three k-dimensional spaces (queries,
// structures, answer vectors — Section 7.1 of the paper); this module
// provides the shared dense representation. All arithmetic is exact.

#ifndef BAGDET_LINALG_MATRIX_H_
#define BAGDET_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/rational.h"

namespace bagdet {

/// Dense column vector over Q.
class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t size) : entries_(size) {}
  Vec(std::initializer_list<Rational> entries) : entries_(entries) {}
  explicit Vec(std::vector<Rational> entries) : entries_(std::move(entries)) {}

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  Rational& operator[](std::size_t i) { return entries_[i]; }
  const Rational& operator[](std::size_t i) const { return entries_[i]; }

  bool IsZero() const;

  Vec operator-() const;
  Vec& operator+=(const Vec& other);
  Vec& operator-=(const Vec& other);
  Vec& operator*=(const Rational& scalar);
  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(Vec a, const Rational& s) { return a *= s; }
  friend Vec operator*(const Rational& s, Vec a) { return a *= s; }

  friend bool operator==(const Vec& a, const Vec& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const Vec& a, const Vec& b) { return !(a == b); }

  /// Dot product; sizes must match.
  static Rational Dot(const Vec& a, const Vec& b);

  /// True iff every entry is >= 0.
  bool IsNonNegative() const;

  /// True iff every entry is an integer.
  bool IsIntegral() const;

  /// Smallest positive integer c such that c * (*this) is integral.
  BigInt CommonDenominator() const;

  std::string ToString() const;
  friend std::ostream& operator<<(std::ostream& os, const Vec& v);

 private:
  std::vector<Rational> entries_;
};

/// Dense matrix over Q, row-major.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), entries_(rows * cols) {}
  /// Builds from a row-major nested initializer list.
  Mat(std::initializer_list<std::initializer_list<Rational>> rows);

  static Mat Identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Rational& At(std::size_t r, std::size_t c) { return entries_[r * cols_ + c]; }
  const Rational& At(std::size_t r, std::size_t c) const {
    return entries_[r * cols_ + c];
  }

  Vec Row(std::size_t r) const;
  Vec Col(std::size_t c) const;
  void SetRow(std::size_t r, const Vec& row);

  /// Swaps two rows of the flat storage by element-wise move (no Rational
  /// deep copies) — the elimination kernels' pivot swap.
  void SwapRows(std::size_t a, std::size_t b);

  /// Pre-allocates flat storage for a rows×cols matrix without changing
  /// the current shape (callers that assemble matrices incrementally).
  void Reserve(std::size_t rows, std::size_t cols) {
    entries_.reserve(rows * cols);
  }

  Mat Transposed() const;

  friend bool operator==(const Mat& a, const Mat& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.entries_ == b.entries_;
  }
  friend bool operator!=(const Mat& a, const Mat& b) { return !(a == b); }

  /// Matrix-vector product; `v.size()` must equal `cols()`.
  Vec Apply(const Vec& v) const;

  /// Matrix-matrix product; `other.rows()` must equal `cols()`.
  Mat Multiply(const Mat& other) const;

  /// Builds a matrix whose columns are the given vectors (all same size).
  static Mat FromColumns(const std::vector<Vec>& columns);
  /// Builds a matrix whose rows are the given vectors (all same size).
  static Mat FromRows(const std::vector<Vec>& rows);

  std::string ToString() const;
  friend std::ostream& operator<<(std::ostream& os, const Mat& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Rational> entries_;
};

}  // namespace bagdet

#endif  // BAGDET_LINALG_MATRIX_H_
