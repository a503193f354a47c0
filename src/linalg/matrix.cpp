#include "linalg/matrix.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bagdet {

bool Vec::IsZero() const {
  for (const Rational& e : entries_) {
    if (!e.IsZero()) return false;
  }
  return true;
}

Vec Vec::operator-() const {
  Vec result = *this;
  for (Rational& e : result.entries_) e = -e;
  return result;
}

Vec& Vec::operator+=(const Vec& other) {
  if (size() != other.size()) throw std::invalid_argument("Vec: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) entries_[i] += other.entries_[i];
  return *this;
}

Vec& Vec::operator-=(const Vec& other) {
  if (size() != other.size()) throw std::invalid_argument("Vec: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) entries_[i] -= other.entries_[i];
  return *this;
}

Vec& Vec::operator*=(const Rational& scalar) {
  for (Rational& e : entries_) e *= scalar;
  return *this;
}

Rational Vec::Dot(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) throw std::invalid_argument("Vec: size mismatch");
  Rational sum;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

bool Vec::IsNonNegative() const {
  for (const Rational& e : entries_) {
    if (e.IsNegative()) return false;
  }
  return true;
}

bool Vec::IsIntegral() const {
  for (const Rational& e : entries_) {
    if (!e.IsInteger()) return false;
  }
  return true;
}

BigInt Vec::CommonDenominator() const {
  BigInt lcm(1);
  for (const Rational& e : entries_) {
    const BigInt& d = e.denominator();
    BigInt gcd = BigInt::Gcd(lcm, d);
    lcm = lcm / gcd * d;
  }
  return lcm;
}

std::string Vec::ToString() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < size(); ++i) {
    if (i != 0) os << ", ";
    os << entries_[i];
  }
  os << ']';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Vec& v) {
  return os << v.ToString();
}

Mat::Mat(std::initializer_list<std::initializer_list<Rational>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  entries_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) throw std::invalid_argument("Mat: ragged rows");
    for (const Rational& e : row) entries_.push_back(e);
  }
}

Mat Mat::Identity(std::size_t n) {
  Mat result(n, n);
  for (std::size_t i = 0; i < n; ++i) result.At(i, i) = Rational(1);
  return result;
}

Vec Mat::Row(std::size_t r) const {
  Vec result(cols_);
  for (std::size_t c = 0; c < cols_; ++c) result[c] = At(r, c);
  return result;
}

Vec Mat::Col(std::size_t c) const {
  Vec result(rows_);
  for (std::size_t r = 0; r < rows_; ++r) result[r] = At(r, c);
  return result;
}

void Mat::SetRow(std::size_t r, const Vec& row) {
  if (row.size() != cols_) throw std::invalid_argument("Mat: row size mismatch");
  for (std::size_t c = 0; c < cols_; ++c) At(r, c) = row[c];
}

void Mat::SwapRows(std::size_t a, std::size_t b) {
  if (a == b) return;
  std::swap_ranges(entries_.begin() + a * cols_,
                   entries_.begin() + (a + 1) * cols_,
                   entries_.begin() + b * cols_);
}

Mat Mat::Transposed() const {
  Mat result(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) result.At(c, r) = At(r, c);
  }
  return result;
}

Vec Mat::Apply(const Vec& v) const {
  if (v.size() != cols_) throw std::invalid_argument("Mat: apply size mismatch");
  Vec result(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    Rational sum;
    for (std::size_t c = 0; c < cols_; ++c) sum += At(r, c) * v[c];
    result[r] = sum;
  }
  return result;
}

Mat Mat::Multiply(const Mat& other) const {
  if (other.rows_ != cols_) throw std::invalid_argument("Mat: mul size mismatch");
  Mat result(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Rational& a = At(r, k);
      if (a.IsZero()) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        result.At(r, c) += a * other.At(k, c);
      }
    }
  }
  return result;
}

Mat Mat::FromColumns(const std::vector<Vec>& columns) {
  if (columns.empty()) return Mat();
  Mat result(columns[0].size(), columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != result.rows()) {
      throw std::invalid_argument("Mat: ragged columns");
    }
    for (std::size_t r = 0; r < result.rows(); ++r) {
      result.At(r, c) = columns[c][r];
    }
  }
  return result;
}

Mat Mat::FromRows(const std::vector<Vec>& rows) {
  if (rows.empty()) return Mat();
  Mat result(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) result.SetRow(r, rows[r]);
  return result;
}

std::string Mat::ToString() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c != 0) os << ", ";
      os << At(r, c);
    }
    os << (r + 1 == rows_ ? "]" : ";\n");
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Mat& m) {
  return os << m.ToString();
}

}  // namespace bagdet
