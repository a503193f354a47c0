#include "util/bigint.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_matrices.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace bagdet {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.ToInt64(), 0);
}

TEST(BigIntTest, Int64RoundTrip) {
  const std::vector<std::int64_t> values = {
      0, 1, -1, 42, -9999999, (std::int64_t{1} << 40),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : values) {
    BigInt b(v);
    EXPECT_TRUE(b.FitsInt64()) << v;
    EXPECT_EQ(b.ToInt64(), v);
  }
}

TEST(BigIntTest, Int64MinBoundary) {
  BigInt min_val(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(min_val.FitsInt64());
  BigInt just_below = min_val - BigInt(1);
  EXPECT_FALSE(just_below.FitsInt64());
  EXPECT_THROW(just_below.ToInt64(), std::overflow_error);
  BigInt max_val(std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE((max_val + BigInt(1)).FitsInt64());
}

TEST(BigIntTest, StringRoundTripSmall) {
  const std::vector<std::int64_t> values = {0, 7, -7, 123456789,
                                            -987654321012345};
  for (std::int64_t v : values) {
    EXPECT_EQ(BigInt::FromString(BigInt(v).ToString()), BigInt(v));
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_THROW(BigInt::FromString(""), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt::FromString("0x10"), std::invalid_argument);
}

TEST(BigIntTest, FromStringAcceptsPlusAndZeros) {
  EXPECT_EQ(BigInt::FromString("+17"), BigInt(17));
  EXPECT_EQ(BigInt::FromString("000"), BigInt(0));
  EXPECT_EQ(BigInt::FromString("-0"), BigInt(0));
  EXPECT_EQ(BigInt::FromString("-000123"), BigInt(-123));
}

TEST(BigIntTest, LargeDecimalRoundTrip) {
  std::string digits = "123456789012345678901234567890123456789012345678901";
  BigInt big = BigInt::FromString(digits);
  EXPECT_EQ(big.ToString(), digits);
  EXPECT_EQ((-big).ToString(), "-" + digits);
  EXPECT_FALSE(big.FitsInt64());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::FromString("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  BigInt b = BigInt::FromString("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, SubtractionBorrowsAndFlipsSign) {
  EXPECT_EQ(BigInt(5) - BigInt(7), BigInt(-2));
  BigInt b = BigInt::FromString("18446744073709551616");
  EXPECT_EQ((b - BigInt(1)).ToString(), "18446744073709551615");
  EXPECT_EQ(b - b, BigInt(0));
}

TEST(BigIntTest, MultiplicationSigns) {
  EXPECT_EQ(BigInt(-3) * BigInt(4), BigInt(-12));
  EXPECT_EQ(BigInt(-3) * BigInt(-4), BigInt(12));
  EXPECT_EQ(BigInt(0) * BigInt(-4), BigInt(0));
  EXPECT_FALSE((BigInt(0) * BigInt(-4)).IsNegative());
}

TEST(BigIntTest, SchoolbookMultiplicationLarge) {
  BigInt a = BigInt::FromString("12345678901234567890");
  BigInt b = BigInt::FromString("98765432109876543210");
  EXPECT_EQ((a * b).ToString(), "1219326311370217952237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(0), std::domain_error);
}

TEST(BigIntTest, KnuthDivisionMultiLimb) {
  BigInt a = BigInt::FromString("340282366920938463463374607431768211456");
  BigInt b = BigInt::FromString("18446744073709551616");
  EXPECT_EQ((a / b).ToString(), "18446744073709551616");
  EXPECT_EQ(a % b, BigInt(0));
  // A case exercising the q_hat correction path (top limbs close).
  BigInt c = BigInt::FromString("79228162514264337593543950335");
  BigInt d = BigInt::FromString("79228162514264337593543950336");
  EXPECT_EQ(c / d, BigInt(0));
  EXPECT_EQ(c % d, c);
}

TEST(BigIntTest, PowMatchesRepeatedMultiply) {
  EXPECT_EQ(BigInt::Pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::Pow(BigInt(0), 0), BigInt(1));  // Paper's convention.
  EXPECT_EQ(BigInt::Pow(BigInt(0), 5), BigInt(0));
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3), BigInt(-8));
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 4), BigInt(16));
  EXPECT_EQ(BigInt::Pow(BigInt(10), 30).ToString(),
            "1000000000000000000000000000000");
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, ComparisonTotalOrder) {
  std::vector<BigInt> ordered = {
      BigInt::FromString("-99999999999999999999"), BigInt(-2), BigInt(0),
      BigInt(1), BigInt::FromString("99999999999999999999")};
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    for (std::size_t j = 0; j < ordered.size(); ++j) {
      EXPECT_EQ(ordered[i] < ordered[j], i < j);
      EXPECT_EQ(ordered[i] == ordered[j], i == j);
      EXPECT_EQ(ordered[i] <= ordered[j], i <= j);
    }
  }
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

TEST(BigIntTest, HashEqualValuesAgree) {
  BigInt a = BigInt::FromString("123456789012345678901234567890");
  BigInt b = BigInt::FromString("123456789012345678901234567890");
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), (-a).Hash());
}

TEST(BigIntModTest, MatchesDivModOnLargeAndNegativeValues) {
  // The largest prime below 2^62, the modulus CountVectorFingerprint uses.
  constexpr std::uint64_t kPrime = 4611686018427387847ull;
  Rng rng(5);
  const BigInt modulus(static_cast<std::int64_t>(kPrime));
  for (int i = 0; i < 100; ++i) {
    BigInt v = testmat::RandomBig(&rng, 1 + static_cast<int>(rng.Below(8)));
    if (rng.Chance(1, 2)) v = -v;
    const BigInt reference = ((v % modulus) + modulus) % modulus;
    EXPECT_EQ(BigInt(static_cast<std::int64_t>(v.Mod(kPrime))), reference);
  }
  EXPECT_EQ(BigInt(-3).Mod(7), 4u);
  EXPECT_EQ(BigInt(0).Mod(7), 0u);
  EXPECT_THROW(BigInt(1).Mod(0), std::domain_error);
}

// ---------------------------------------------------------------------------
// Randomized cross-validation against native __int128 arithmetic.

class BigIntRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntRandomTest, ArithmeticMatchesInt128) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    std::int64_t x = rng.Range(-1'000'000'000, 1'000'000'000);
    std::int64_t y = rng.Range(-1'000'000'000, 1'000'000'000);
    BigInt bx(x);
    BigInt by(y);
    EXPECT_EQ((bx + by).ToInt64(), x + y);
    EXPECT_EQ((bx - by).ToInt64(), x - y);
    __int128 product = static_cast<__int128>(x) * y;
    BigInt bp = bx * by;
    if (bp.FitsInt64()) {
      EXPECT_EQ(static_cast<__int128>(bp.ToInt64()), product);
    }
    if (y != 0) {
      EXPECT_EQ((bx / by).ToInt64(), x / y);
      EXPECT_EQ((bx % by).ToInt64(), x % y);
    }
  }
}

TEST_P(BigIntRandomTest, DivModInvariant) {
  Rng rng(GetParam() * 31 + 7);
  for (int iter = 0; iter < 100; ++iter) {
    // Build random big operands from several limbs.
    BigInt a(0);
    BigInt b(0);
    int limbs_a = 1 + static_cast<int>(rng.Below(6));
    int limbs_b = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < limbs_a; ++i) {
      a = a * BigInt::FromString("4294967296") +
          BigInt(static_cast<std::int64_t>(rng.Below(1ull << 32)));
    }
    for (int i = 0; i < limbs_b; ++i) {
      b = b * BigInt::FromString("4294967296") +
          BigInt(static_cast<std::int64_t>(rng.Below(1ull << 32)));
    }
    if (rng.Chance(1, 2)) a = -a;
    if (b.IsZero()) b = BigInt(1);
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r.Abs() < b.Abs());
    // Remainder sign follows the dividend.
    if (!r.IsZero()) {
      EXPECT_EQ(r.Sign(), a.Sign());
    }
  }
}

TEST_P(BigIntRandomTest, MulDivRoundTrip) {
  Rng rng(GetParam() * 131 + 3);
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a(static_cast<std::int64_t>(rng.Below(1ull << 62)));
    BigInt b(static_cast<std::int64_t>(1 + rng.Below(1ull << 30)));
    BigInt c = a * b;
    EXPECT_EQ(c / b, a);
    EXPECT_EQ(c % b, BigInt(0));
  }
}

TEST_P(BigIntRandomTest, StringRoundTripRandom) {
  Rng rng(GetParam() * 977 + 11);
  for (int iter = 0; iter < 50; ++iter) {
    std::string digits;
    digits.push_back(static_cast<char>('1' + rng.Below(9)));
    std::size_t length = rng.Below(60);
    for (std::size_t i = 0; i < length; ++i) {
      digits.push_back(static_cast<char>('0' + rng.Below(10)));
    }
    if (rng.Chance(1, 2)) digits.insert(digits.begin(), '-');
    EXPECT_EQ(BigInt::FromString(digits).ToString(), digits);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Large and unbalanced multiplication: cross-validated against division
// and ring identities.

class LargeMultiplyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LargeMultiplyTest, LargeProductsSatisfyRingIdentities) {
  Rng rng(GetParam() * 7919 + 1);
  auto random_big = [&rng](int limbs) {
    BigInt x(0);
    const BigInt base = BigInt::FromString("4294967296");
    for (int i = 0; i < limbs; ++i) {
      x = x * base + BigInt(static_cast<std::int64_t>(rng.Below(1ull << 32)));
    }
    return x;
  };
  for (int iter = 0; iter < 8; ++iter) {
    // 20-79 limb operands, usually of unbalanced sizes.
    BigInt a = random_big(20 + static_cast<int>(rng.Below(60)));
    BigInt b = random_big(20 + static_cast<int>(rng.Below(60)));
    BigInt c = random_big(5);
    // Distributivity ties the multiply to additions (which are simple).
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    // Division (independent code path) inverts the product.
    BigInt p = a * b;
    EXPECT_EQ(p / a, b);
    EXPECT_EQ(p % a, BigInt(0));
    EXPECT_EQ(p / b, a);
    // Commutativity across unbalanced operand sizes.
    EXPECT_EQ(a * b, b * a);
  }
}

TEST_P(LargeMultiplyTest, SquaresOfPowersHaveExactDigits) {
  // (10^n)^2 = 10^(2n): digit counts pin the limb bookkeeping exactly.
  std::uint64_t n = 50 + GetParam() * 37;
  BigInt p = BigInt::Pow(BigInt(10), n);
  BigInt square = p * p;
  EXPECT_EQ(square.ToString().size(), 2 * n + 1);
  EXPECT_EQ(BigInt::FloorKthRoot(square, 2), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargeMultiplyTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Aliasing regression suite. The compound operators route every result
// through arena scratch before committing, so `a op= a` must behave exactly
// like `a op= copy_of_a` — for both representations and all signs. The
// historical bug class here is reading an operand after the destination was
// already mutated (Rational::operator/= had exactly that defect).
// ---------------------------------------------------------------------------

// One small, one just-spilled, one deep-spilled value per sign.
std::vector<BigInt> AliasingProbeValues() {
  std::vector<BigInt> magnitudes = {
      BigInt(0),
      BigInt(7),
      BigInt(std::numeric_limits<std::int64_t>::max()),  // small, near spill
      BigInt::Pow(BigInt(2), 64),                        // minimal spill
      BigInt::Pow(BigInt(3), 200),                       // deep spill
  };
  std::vector<BigInt> values;
  for (const BigInt& m : magnitudes) {
    values.push_back(m);
    if (!m.IsZero()) values.push_back(-m);
  }
  return values;
}

TEST(BigIntAliasingTest, SelfCompoundMatchesCopySemantics) {
  for (const BigInt& v : AliasingProbeValues()) {
    const BigInt copy = v;
    {
      BigInt a = v;
      a += a;
      EXPECT_EQ(a, copy + copy) << "a += a with a = " << copy;
    }
    {
      BigInt a = v;
      a -= a;
      EXPECT_EQ(a, BigInt(0)) << "a -= a with a = " << copy;
    }
    {
      BigInt a = v;
      a *= a;
      EXPECT_EQ(a, copy * copy) << "a *= a with a = " << copy;
    }
    if (!v.IsZero()) {
      BigInt a = v;
      a /= a;
      EXPECT_EQ(a, BigInt(1)) << "a /= a with a = " << copy;
      BigInt b = v;
      b %= b;
      EXPECT_EQ(b, BigInt(0)) << "a %= a with a = " << copy;
    }
  }
}

TEST(BigIntAliasingTest, DivModOutParamsMayAliasInputs) {
  for (const BigInt& a : AliasingProbeValues()) {
    for (const BigInt& b : AliasingProbeValues()) {
      if (b.IsZero()) continue;
      BigInt expect_q, expect_r;
      BigInt::DivMod(a, b, &expect_q, &expect_r);
      {
        BigInt x = a;  // Quotient overwrites the dividend.
        BigInt::DivMod(x, b, &x, nullptr);
        EXPECT_EQ(x, expect_q);
      }
      {
        BigInt x = a;  // Remainder overwrites the dividend.
        BigInt::DivMod(x, b, nullptr, &x);
        EXPECT_EQ(x, expect_r);
      }
      {
        BigInt y = b;  // Quotient overwrites the divisor.
        BigInt::DivMod(a, y, &y, nullptr);
        EXPECT_EQ(y, expect_q);
      }
      {
        BigInt y = b;  // Remainder overwrites the divisor.
        BigInt::DivMod(a, y, nullptr, &y);
        EXPECT_EQ(y, expect_r);
      }
      if (!a.IsZero()) {
        BigInt x = a;  // Both out-params alias the same object: the
        BigInt::DivMod(x, b, &x, &x);  // remainder wins (documented).
        EXPECT_EQ(x, expect_r);
      }
    }
  }
}

TEST(BigIntAliasingTest, MulAddMulSubWithAliasedOperands) {
  for (const BigInt& v : AliasingProbeValues()) {
    const BigInt k = BigInt::Pow(BigInt(5), 30);
    {
      BigInt x = v;  // x += x * k
      x.MulAdd(x, k);
      EXPECT_EQ(x, v + v * k);
    }
    {
      BigInt x = v;  // x += k * x
      x.MulAdd(k, x);
      EXPECT_EQ(x, v + k * v);
    }
    {
      BigInt x = v;  // x += x * x
      x.MulAdd(x, x);
      EXPECT_EQ(x, v + v * v);
    }
    {
      BigInt x = v;  // x -= x * x
      x.MulSub(x, x);
      EXPECT_EQ(x, v - v * v);
    }
  }
}

class BigIntAliasingRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BigIntAliasingRandomTest, RandomSelfOpsMatchCopySemantics) {
  Rng rng(GetParam());
  auto random_big = [&rng](int limbs) {
    BigInt x(0);
    const BigInt base(static_cast<std::int64_t>(1) << 32);
    for (int i = 0; i < limbs; ++i) {
      x = x * base + BigInt(static_cast<std::int64_t>(rng.Below(1ull << 32)));
    }
    if (rng.Chance(1, 2)) x = -x;
    return x;
  };
  for (int iter = 0; iter < 50; ++iter) {
    BigInt a = random_big(1 + static_cast<int>(rng.Below(12)));
    const BigInt copy = a;
    switch (rng.Below(4)) {
      case 0:
        a += a;
        EXPECT_EQ(a, copy + copy);
        break;
      case 1:
        a -= a;
        EXPECT_EQ(a, BigInt(0));
        break;
      case 2:
        a *= a;
        EXPECT_EQ(a, copy * copy);
        break;
      default:
        a.MulAdd(a, a);
        EXPECT_EQ(a, copy + copy * copy);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntAliasingRandomTest,
                         ::testing::Values(21, 22, 23));

// ---------------------------------------------------------------------------
// Failpoint coverage: every small->spilled transition must pass through the
// canonical commit point so an armed `bigint/alloc` observes it. The inline
// fast paths (operator+= carry-out, operator*= 128-bit product) used to
// spill directly into the limb vector, invisibly to fault injection.
// ---------------------------------------------------------------------------

class BigIntFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::Enabled()) {
      GTEST_SKIP() << "failpoints not compiled in";
    }
  }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(BigIntFailpointTest, AdditionCarryOutSpillHitsAllocFailpoint) {
  failpoint::Arm("bigint/alloc", {failpoint::Action::kBadAlloc});
  BigInt a(std::numeric_limits<std::int64_t>::max());
  a += a;  // Still small: 2^64 - 2 fits the inline word.
  BigInt max_small = a + BigInt(1);
  (void)max_small;  // 2^64 - 1: the largest inline magnitude.
  BigInt b = a;
  EXPECT_THROW(b += BigInt(2), std::bad_alloc);  // Carry out of 64 bits.
  EXPECT_GE(failpoint::HitCount("bigint/alloc"), 1u);
}

TEST_F(BigIntFailpointTest, MultiplicationProductSpillHitsAllocFailpoint) {
  failpoint::Arm("bigint/alloc", {failpoint::Action::kBadAlloc});
  BigInt a(static_cast<std::int64_t>(1) << 32);
  EXPECT_THROW(a *= a, std::bad_alloc);  // 128-bit product fast path.
  EXPECT_GE(failpoint::HitCount("bigint/alloc"), 1u);
}

TEST_F(BigIntFailpointTest, SpilledOperationsHitAllocFailpoint) {
  BigInt big = BigInt::Pow(BigInt(7), 100);  // Build before arming.
  BigInt other = BigInt::Pow(BigInt(3), 90);
  failpoint::Arm("bigint/alloc", {failpoint::Action::kBadAlloc});
  {
    BigInt x = big;
    EXPECT_THROW(x += other, std::bad_alloc);
  }
  {
    BigInt x = big;
    EXPECT_THROW(x *= other, std::bad_alloc);
  }
  {
    BigInt q, r;
    EXPECT_THROW(BigInt::DivMod(big, other, &q, &r), std::bad_alloc);
  }
  EXPECT_GE(failpoint::HitCount("bigint/alloc"), 3u);
}

TEST_F(BigIntFailpointTest, ParseSpillHitsAllocFailpoint) {
  const std::string text = BigInt::Pow(BigInt(2), 100).ToString();
  failpoint::Arm("bigint/alloc", {failpoint::Action::kBadAlloc});
  EXPECT_THROW(BigInt::FromString(text), std::bad_alloc);  // SetMagnitude.
  EXPECT_GE(failpoint::HitCount("bigint/alloc"), 1u);
}

TEST_F(BigIntFailpointTest, SmallOnlyArithmeticNeverHitsAllocFailpoint) {
  failpoint::Arm("bigint/alloc", {failpoint::Action::kBadAlloc});
  BigInt a(123456789);
  a += BigInt(987654321);
  a *= BigInt(1000003);
  a -= BigInt(42);
  BigInt q, r;
  BigInt::DivMod(a, BigInt(97), &q, &r);
  EXPECT_EQ(failpoint::HitCount("bigint/alloc"), 0u);
}

}  // namespace
}  // namespace bagdet
