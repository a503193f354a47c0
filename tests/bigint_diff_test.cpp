// Randomized BigInt differentials targeting the spots where the limb
// kernels change carry shape:
//
//   * large and unbalanced products (31/32/33-limb operands, square and
//     mixed sizes),
//   * the Knuth algorithm D q_hat correction (dividends engineered with
//     saturated high limbs so the initial two-limb estimate overshoots),
//   * Mod against the 2^63 domain edge,
//   * the fused MulAdd / MulSub against their unfused spellings.
//
// Each case validates through an independent path — ring identities,
// division round-trips, and word-size modular residues — rather than a
// second bignum implementation. The nightly differential job scales the
// iteration counts with BAGDET_DIFF_ITERS.

#include <cstdlib>
#include <gtest/gtest.h>

#include "test_matrices.h"
#include "util/bigint.h"
#include "util/rng.h"

namespace bagdet {
namespace {

int DiffIters() {
  const char* env = std::getenv("BAGDET_DIFF_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

// A value of exactly `limbs` base-2^32 digits with a nonzero top limb (so
// the operand size seen by the multiply/divide dispatch is exact).
BigInt ExactLimbs(Rng* rng, int limbs) {
  BigInt x = testmat::RandomBig(rng, limbs - 1);
  std::uint64_t top = 1 + rng->Below((1ull << 32) - 1);
  return x + BigInt::Pow(BigInt(2), 32 * (limbs - 1)) *
                 BigInt(static_cast<std::int64_t>(top));
}

class BigIntDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntDiffTest, LargeAndUnbalancedProducts) {
  Rng rng(GetParam());
  // Multi-limb operands of equal and mixed sizes, so the schoolbook
  // carry chain runs over full rows of both lengths.
  const int sizes[] = {31, 32, 33};
  for (int iter = 0; iter < 4 * DiffIters(); ++iter) {
    for (int na : sizes) {
      for (int nb : sizes) {
        BigInt a = ExactLimbs(&rng, na);
        BigInt b = ExactLimbs(&rng, nb);
        BigInt c = testmat::RandomBig(&rng, 3);
        BigInt p = a * b;
        // Commutativity and distributivity tie the multiply to the
        // (simple, carry-chain) addition path.
        EXPECT_EQ(p, b * a);
        EXPECT_EQ(a * (b + c), p + a * c);
        // Division inverts the product through an independent kernel.
        EXPECT_EQ(p / a, b);
        EXPECT_EQ(p % b, BigInt(0));
        // Word-size residues cross-check both against native arithmetic:
        // (a*b) mod m == ((a mod m)*(b mod m)) mod m.
        const std::uint64_t m = (1ull << 61) - 1;
        EXPECT_EQ(p.Mod(m),
                  static_cast<std::uint64_t>(
                      (static_cast<unsigned __int128>(a.Mod(m)) * b.Mod(m)) %
                      m));
      }
    }
  }
}

TEST_P(BigIntDiffTest, KnuthDQHatCorrection) {
  Rng rng(GetParam());
  // The q_hat estimate from the top two dividend limbs overshoots when the
  // divisor's second limb is large relative to its first; saturated-limb
  // operands (runs of 0xFFFFFFFF) maximize the correction frequency.
  const BigInt word_max(static_cast<std::int64_t>(0xffffffffll));
  const BigInt base(static_cast<std::int64_t>(1) << 32);
  for (int iter = 0; iter < 20 * DiffIters(); ++iter) {
    int nb = 3 + static_cast<int>(rng.Below(6));
    int extra = 1 + static_cast<int>(rng.Below(6));
    // b = 2^(32*nb) - small: top limbs all 0xFFFFFFFF.
    BigInt b = BigInt::Pow(base, nb) -
               BigInt(static_cast<std::int64_t>(1 + rng.Below(1000)));
    // a built so its top limbs mirror b's (quotient digits near the base).
    BigInt q_true = testmat::RandomBig(&rng, extra);
    if (q_true.IsZero()) q_true = word_max;
    BigInt r_true = testmat::RandomBig(&rng, nb - 1);  // < b by size.
    BigInt a = q_true * b + r_true;
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q, q_true);
    EXPECT_EQ(r, r_true);
    // Round-trip invariant directly (r_true < b is guaranteed by limb
    // count, but re-assert the contract anyway).
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    // Negative dividend: truncated quotient, remainder follows dividend.
    BigInt nq, nr;
    BigInt::DivMod(-a, b, &nq, &nr);
    EXPECT_EQ(nq, -q);
    EXPECT_EQ(nr, -r);
  }
}

TEST_P(BigIntDiffTest, ModNearDomainEdge) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20 * DiffIters(); ++iter) {
    BigInt a = testmat::RandomBigSigned(&rng, 1 + static_cast<int>(
                                                  rng.Below(8)));
    // Moduli hugging the open upper bound 2^63, plus mid-range ones.
    const std::uint64_t edge = 1ull << 63;
    const std::uint64_t moduli[] = {
        edge - 1,
        edge - 1 - rng.Below(1000),
        (1ull << 62) + rng.Below(1ull << 62),
        2 + rng.Below(1ull << 32),
    };
    for (std::uint64_t m : moduli) {
      // Mod: always in [0, m), congruent to a.
      const std::uint64_t residue = a.Mod(m);
      ASSERT_LT(residue, m);
      const BigInt bm(static_cast<std::int64_t>(m));
      BigInt diff = a - BigInt(static_cast<std::int64_t>(residue));
      EXPECT_TRUE((diff % bm).IsZero())
          << a << " mod " << m << " gave " << residue;
    }
  }
  // The contract excludes 0 and anything >= 2^63.
  BigInt v(12345);
  EXPECT_THROW(v.Mod(0), std::domain_error);
  EXPECT_THROW(v.Mod(1ull << 63), std::domain_error);
}

TEST_P(BigIntDiffTest, FusedMulAddMulSubMatchUnfused) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 30 * DiffIters(); ++iter) {
    BigInt x = testmat::RandomBigSigned(&rng, 1 + static_cast<int>(
                                                  rng.Below(10)));
    BigInt a = testmat::RandomBigSigned(&rng, 1 + static_cast<int>(
                                                  rng.Below(10)));
    BigInt b = testmat::RandomBigSigned(&rng, 1 + static_cast<int>(
                                                  rng.Below(10)));
    BigInt add = x;
    add.MulAdd(a, b);
    EXPECT_EQ(add, x + a * b);
    BigInt sub = x;
    sub.MulSub(a, b);
    EXPECT_EQ(sub, x - a * b);
    // Chained folds keep the accumulator canonical (memberwise == against
    // the freshly computed value is the canonicity check).
    BigInt chain = x;
    chain.MulAdd(a, b);
    chain.MulSub(a, b);
    EXPECT_EQ(chain, x);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDiffTest, ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace bagdet
