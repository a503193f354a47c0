// Shared deterministic random-matrix generators for the linear-algebra
// and BigInt tests. One copy, so the generators cannot drift (a
// per-*entry* draw of the low-rank combination coefficients would silently
// destroy the linear dependence a low-rank case claims to test).
// Header-only, no gtest dependency.

#ifndef BAGDET_TESTS_TEST_MATRICES_H_
#define BAGDET_TESTS_TEST_MATRICES_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "util/bigint.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bagdet {
namespace testmat {

/// Uniform random nonnegative integer of `limbs` base-2^32 digits, i.e.
/// ~32·limbs bits — limbs=8 is the 256-bit scale of the radix-T hom
/// counts the determinacy pipeline feeds its evaluation matrices.
inline BigInt RandomBig(Rng* rng, int limbs) {
  BigInt x(0);
  const BigInt base(static_cast<std::int64_t>(1) << 32);
  for (int i = 0; i < limbs; ++i) {
    x = x * base + BigInt(static_cast<std::int64_t>(rng->Below(1ull << 32)));
  }
  return x;
}

/// RandomBig with a fair coin on the sign.
inline BigInt RandomBigSigned(Rng* rng, int limbs) {
  BigInt x = RandomBig(rng, limbs);
  if (rng->Chance(1, 2)) x = -x;
  return x;
}

/// Dense matrix with integer entries uniform in [lo, hi].
inline Mat RandomIntMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                           std::int64_t lo, std::int64_t hi) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(rng->Range(lo, hi));
    }
  }
  return m;
}

/// Dense matrix of small rationals a/b, a in [-num_range, num_range],
/// b in [1, den_range].
inline Mat RandomRationalMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                                std::int64_t num_range,
                                std::int64_t den_range) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(BigInt(rng->Range(-num_range, num_range)),
                            BigInt(rng->Range(1, den_range)));
    }
  }
  return m;
}

/// Dense matrix of signed ~32·limbs-bit integer entries.
inline Mat RandomBigMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                           int limbs) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(RandomBigSigned(rng, limbs));
    }
  }
  return m;
}

/// n×n matrix of exact rank `rank` with ~32·limbs-bit entries: the first
/// `rank` rows are random, every later row is a small positive integer
/// combination of them with ONE coefficient per basis row (a per-entry
/// draw would destroy the linear dependence and collapse the RREF to the
/// identity). Its RREF holds genuinely large rationals.
inline Mat RandomBigLowRankMatrix(Rng* rng, std::size_t n, std::size_t rank,
                                  int limbs) {
  Mat m(n, n);
  for (std::size_t r = 0; r < rank && r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.At(r, c) = Rational(RandomBigSigned(rng, limbs));
    }
  }
  for (std::size_t r = rank; r < n; ++r) {
    std::vector<Rational> coeff(rank);
    for (std::size_t base = 0; base < rank; ++base) {
      coeff[base] = Rational(rng->Range(1, 3));
    }
    for (std::size_t c = 0; c < n; ++c) {
      Rational sum;
      for (std::size_t base = 0; base < rank; ++base) {
        sum += m.At(base, c) * coeff[base];
      }
      m.At(r, c) = std::move(sum);
    }
  }
  return m;
}

/// Hilbert-like ill-conditioned matrix: At(i, j) = 1 / (i + j + 1 +
/// offset). Nonsingular for every n (Cauchy structure) with inverse
/// entries that blow up combinatorially — the classic stress case for
/// exact elimination.
inline Mat HilbertLikeMatrix(std::size_t n, std::size_t offset = 0) {
  Mat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) =
          Rational(BigInt(1), BigInt(static_cast<std::int64_t>(i + j + 1 +
                                                               offset)));
    }
  }
  return m;
}

/// Sparse matrix: each entry is nonzero (uniform in [lo, hi] \ {0}) with
/// probability density_num/density_den.
inline Mat RandomSparseMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                              std::uint64_t density_num,
                              std::uint64_t density_den, std::int64_t lo,
                              std::int64_t hi) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!rng->Chance(density_num, density_den)) continue;
      std::int64_t v = rng->Range(lo, hi);
      if (v == 0) v = 1;
      m.At(r, c) = Rational(v);
    }
  }
  return m;
}

// --- Differential-harness knobs (the nightly CI job drives these) --------

/// Iteration multiplier for the randomized differential suites: the
/// BAGDET_DIFF_ITERS environment variable when set to a positive integer,
/// else 1. The nightly CI job sets it to run the same suites at ~10× the
/// per-commit case count.
inline int DiffIterScale() {
  const char* value = std::getenv("BAGDET_DIFF_ITERS");
  if (value == nullptr) return 1;
  const int scale = std::atoi(value);
  return scale > 0 ? scale : 1;
}

/// Appends a failing seed to the file named by BAGDET_FAIL_SEED_FILE (no-
/// op when unset). CI uploads the file as an artifact so a nightly
/// failure is reproducible locally: rerun the suite with the recorded
/// seed.
inline void RecordFailureSeed(std::uint64_t seed) {
  const char* path = std::getenv("BAGDET_FAIL_SEED_FILE");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::app);
  out << seed << "\n";
}

}  // namespace testmat
}  // namespace bagdet

#endif  // BAGDET_TESTS_TEST_MATRICES_H_
