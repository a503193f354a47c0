#include "util/bigint.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <stdexcept>

#include "util/failpoint.h"
#include "util/limb_kernels.h"

namespace bagdet {

limb::LimbSpan BigInt::MagnitudeSpan(std::uint32_t (&inline_buf)[2]) const {
  if (!IsSmall()) return limb::LimbSpan{limbs_.data(), limbs_.size()};
  inline_buf[0] = static_cast<std::uint32_t>(small_ & 0xffffffffu);
  inline_buf[1] = static_cast<std::uint32_t>(small_ >> 32);
  const std::size_t size = small_ == 0 ? 0 : (small_ >> 32 ? 2 : 1);
  return limb::LimbSpan{inline_buf, size};
}

void BigInt::CommitSpan(limb::LimbSpan magnitude) {
  const std::size_t n = limb::Trim(magnitude.data, magnitude.size);
  if (n <= 2) {
    small_ = n == 0 ? 0 : magnitude[0];
    if (n == 2) small_ |= static_cast<std::uint64_t>(magnitude[1]) << 32;
    limbs_.clear();
  } else {
    // The limb spill is the single point where a result commits to heap
    // storage — the injection site modeling bignum allocation failure.
    BAGDET_FAILPOINT("bigint/alloc");
    if (limbs_.capacity() < n) limb::NoteHeapAlloc();
    limbs_.assign(magnitude.data, magnitude.data + n);
    small_ = 0;
  }
  if (IsZero()) negative_ = false;
}

void BigInt::SetMagnitude(std::vector<std::uint32_t> limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  if (limbs.size() <= 2) {
    small_ = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() == 2) small_ |= static_cast<std::uint64_t>(limbs[1]) << 32;
    limbs_.clear();
  } else {
    // The limb spill is the single point where a result commits to heap
    // storage — the injection site modeling bignum allocation failure.
    BAGDET_FAILPOINT("bigint/alloc");
    limb::NoteHeapAlloc();
    small_ = 0;
    limbs_ = std::move(limbs);
  }
  if (IsZero()) negative_ = false;
}

void BigInt::MulAddSmallMagnitude(std::uint32_t multiplier,
                                  std::uint32_t addend) {
  if (IsSmall()) {
    unsigned __int128 value =
        static_cast<unsigned __int128>(small_) * multiplier + addend;
    if ((value >> 64) == 0) {
      small_ = static_cast<std::uint64_t>(value);
      return;
    }
  }
  std::uint32_t buf[2];
  const limb::LimbSpan view = MagnitudeSpan(buf);
  std::vector<std::uint32_t> limbs(view.data, view.data + view.size);
  std::uint64_t carry = addend;
  for (std::uint32_t& limb : limbs) {
    std::uint64_t cur = static_cast<std::uint64_t>(limb) * multiplier + carry;
    limb = static_cast<std::uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  while (carry != 0) {
    limbs.push_back(static_cast<std::uint32_t>(carry & 0xffffffffu));
    carry >>= 32;
  }
  SetMagnitude(std::move(limbs));
}

BigInt BigInt::FromString(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt: empty string");
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i == text.size()) throw std::invalid_argument("BigInt: no digits");
  // Consume 9-digit chunks (the largest power of ten below 2^32), mirroring
  // ToString's base-10^9 scheme: one multiply-add per chunk instead of one
  // per digit.
  static constexpr std::uint32_t kPow10[10] = {
      1,      10,      100,      1000,      10000,
      100000, 1000000, 10000000, 100000000, 1000000000};
  BigInt result;
  while (i < text.size()) {
    const std::size_t chunk_len = std::min<std::size_t>(9, text.size() - i);
    std::uint32_t chunk = 0;
    for (std::size_t j = 0; j < chunk_len; ++j, ++i) {
      if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
        throw std::invalid_argument("BigInt: bad digit in input");
      }
      chunk = chunk * 10 + static_cast<std::uint32_t>(text[i] - '0');
    }
    result.MulAddSmallMagnitude(kPow10[chunk_len], chunk);
  }
  if (negative && !result.IsZero()) result.negative_ = true;
  return result;
}

std::size_t BigInt::BitLength() const {
  if (IsSmall()) {
    std::size_t bits = 0;
    for (std::uint64_t v = small_; v != 0; v >>= 1) ++bits;
    return bits;
  }
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::FitsInt64() const {
  if (!IsSmall()) return false;  // Spilled magnitudes are >= 2^64.
  if (negative_) return small_ <= (1ull << 63);
  return small_ < (1ull << 63);
}

std::int64_t BigInt::ToInt64() const {
  if (!FitsInt64()) throw std::overflow_error("BigInt: does not fit in int64");
  if (negative_) return static_cast<std::int64_t>(~small_ + 1);
  return static_cast<std::int64_t>(small_);
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  if (IsSmall()) {
    std::string digits = std::to_string(small_);
    return negative_ ? "-" + digits : digits;
  }
  std::vector<std::uint32_t> magnitude = limbs_;
  std::string digits;
  while (!magnitude.empty()) {
    std::uint32_t remainder = DivSmallInPlace(&magnitude, 1000000000u);
    // All chunks except the most significant are zero-padded to 9 digits.
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + remainder % 10));
      remainder /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.IsZero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

std::uint32_t BigInt::DivSmallInPlace(std::vector<std::uint32_t>* a,
                                      std::uint32_t divisor) {
  std::uint64_t remainder = 0;
  for (std::size_t i = a->size(); i-- > 0;) {
    std::uint64_t cur = (remainder << 32) | (*a)[i];
    (*a)[i] = static_cast<std::uint32_t>(cur / divisor);
    remainder = cur % divisor;
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
  return static_cast<std::uint32_t>(remainder);
}

void BigInt::AccumulateSigned(bool addend_negative, limb::LimbSpan magnitude,
                              limb::ArenaScope& scratch) {
  if (magnitude.empty()) return;
  std::uint32_t sbuf[2];
  const limb::LimbSpan self = MagnitudeSpan(sbuf);
  if (negative_ == addend_negative) {
    std::uint32_t* dst =
        scratch.Alloc(std::max(self.size, magnitude.size) + 1);
    const std::size_t n = limb::AddInto(dst, self, magnitude);
    CommitSpan(limb::LimbSpan{dst, n});
    return;
  }
  const int cmp = limb::Compare(self, magnitude);
  if (cmp == 0) {
    small_ = 0;
    limbs_.clear();
    negative_ = false;
    return;
  }
  if (cmp > 0) {
    std::uint32_t* dst = scratch.Copy(self);
    const std::size_t n = limb::SubInPlace(dst, self.size, magnitude);
    CommitSpan(limb::LimbSpan{dst, n});
  } else {
    std::uint32_t* dst = scratch.Copy(magnitude);
    const std::size_t n = limb::SubInPlace(dst, magnitude.size, self);
    negative_ = addend_negative;
    CommitSpan(limb::LimbSpan{dst, n});
  }
}

BigInt& BigInt::AddSlow(const BigInt& other) {
  if (IsSmall() && other.IsSmall()) {
    if (negative_ == other.negative_) {
      std::uint64_t sum = small_ + other.small_;
      if (sum >= small_) {  // No wraparound: result still fits inline.
        small_ = sum;
        return *this;
      }
      // Carry out of 64 bits: spill to three limbs (2^64 + sum).
      const std::uint32_t spill[3] = {
          static_cast<std::uint32_t>(sum & 0xffffffffu),
          static_cast<std::uint32_t>(sum >> 32), 1u};
      CommitSpan(limb::LimbSpan{spill, 3});
      return *this;
    }
    if (small_ >= other.small_) {
      small_ -= other.small_;
      if (small_ == 0) negative_ = false;
    } else {
      small_ = other.small_ - small_;
      negative_ = other.negative_;
    }
    return *this;
  }
  // Safe under self-addition: the other operand's span is only read before
  // the arena-scratch result is committed back into this object.
  std::uint32_t obuf[2];
  limb::ArenaScope scratch;
  AccumulateSigned(other.negative_, other.MagnitudeSpan(obuf), scratch);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (this == &other) {
    small_ = 0;
    limbs_.clear();  // Keeps retained capacity.
    negative_ = false;
    return *this;
  }
  // a - b == -(-a + b); the transient sign flip on `this` is safe because
  // += only reads the other operand's sign once up front.
  if (!IsZero()) negative_ = !negative_;
  *this += other;
  if (!IsZero()) negative_ = !negative_;
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  const bool result_negative = negative_ != other.negative_;
  if (IsSmall() && other.IsSmall()) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(small_) * other.small_;
    if ((product >> 64) == 0) {
      small_ = static_cast<std::uint64_t>(product);
      negative_ = small_ != 0 && result_negative;
      return *this;
    }
    const std::uint64_t lo = static_cast<std::uint64_t>(product);
    const std::uint64_t hi = static_cast<std::uint64_t>(product >> 64);
    const std::uint32_t spill[4] = {static_cast<std::uint32_t>(lo & 0xffffffffu),
                                    static_cast<std::uint32_t>(lo >> 32),
                                    static_cast<std::uint32_t>(hi & 0xffffffffu),
                                    static_cast<std::uint32_t>(hi >> 32)};
    CommitSpan(limb::LimbSpan{spill, 4});
    negative_ = result_negative;  // Product is >= 2^64, never zero here.
    return *this;
  }
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  limb::ArenaScope scratch;
  const limb::LimbSpan a = MagnitudeSpan(abuf);
  const limb::LimbSpan b = other.MagnitudeSpan(bbuf);
  std::uint32_t* dst = scratch.Alloc(a.size + b.size);
  const std::size_t n = limb::MulInto(dst, a, b);
  CommitSpan(limb::LimbSpan{dst, n});
  negative_ = !IsZero() && result_negative;
  return *this;
}

BigInt& BigInt::MulAccumulate(const BigInt& a, const BigInt& b,
                              bool subtract) {
  if (a.IsZero() || b.IsZero()) return *this;
  const bool product_negative = (a.negative_ != b.negative_) != subtract;
  if (a.IsSmall() && b.IsSmall()) {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(a.small_) * b.small_;
    if ((product >> 64) == 0) {
      BigInt term;
      term.small_ = static_cast<std::uint64_t>(product);
      term.negative_ = product_negative;
      return *this += term;
    }
  }
  // The product is computed into arena scratch before this object is
  // touched, so `a`/`b` aliasing `*this` is fine.
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  limb::ArenaScope scratch;
  const limb::LimbSpan sa = a.MagnitudeSpan(abuf);
  const limb::LimbSpan sb = b.MagnitudeSpan(bbuf);
  std::uint32_t* product = scratch.Alloc(sa.size + sb.size);
  const std::size_t n = limb::MulInto(product, sa, sb);
  AccumulateSigned(product_negative, limb::LimbSpan{product, n}, scratch);
  return *this;
}

BigInt& BigInt::MulAdd(const BigInt& a, const BigInt& b) {
  return MulAccumulate(a, b, /*subtract=*/false);
}

BigInt& BigInt::MulSub(const BigInt& a, const BigInt& b) {
  return MulAccumulate(a, b, /*subtract=*/true);
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  if (b.IsZero()) throw std::domain_error("BigInt: division by zero");
  if (a.IsSmall() && b.IsSmall()) {
    BigInt q;
    BigInt r;
    q.small_ = a.small_ / b.small_;
    r.small_ = a.small_ % b.small_;
    q.negative_ = q.small_ != 0 && (a.negative_ != b.negative_);
    r.negative_ = r.small_ != 0 && a.negative_;
    if (quotient != nullptr) *quotient = std::move(q);
    if (remainder != nullptr) *remainder = std::move(r);
    return;
  }
  // Both results land in arena scratch before either out-param is written,
  // so `quotient`/`remainder` may alias `a` or `b` (Rational::Normalize
  // divides values by their gcd in place through this).
  const bool q_negative = a.negative_ != b.negative_;
  const bool r_negative = a.negative_;
  std::uint32_t abuf[2];
  std::uint32_t bbuf[2];
  limb::ArenaScope scratch;
  const limb::DivModSpans parts =
      limb::DivMod(a.MagnitudeSpan(abuf), b.MagnitudeSpan(bbuf), scratch);
  if (quotient != nullptr) {
    quotient->CommitSpan(parts.quotient);
    quotient->negative_ = !quotient->IsZero() && q_negative;
  }
  if (remainder != nullptr) {
    remainder->CommitSpan(parts.remainder);
    remainder->negative_ = !remainder->IsZero() && r_negative;
  }
}

BigInt& BigInt::operator/=(const BigInt& other) {
  DivMod(*this, other, this, nullptr);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& other) {
  DivMod(*this, other, nullptr, this);
  return *this;
}

std::uint64_t BigInt::Mod(std::uint64_t m) const {
  if (m == 0 || m >= (1ull << 63)) {
    throw std::domain_error("BigInt::Mod: modulus must be in (0, 2^63)");
  }
  std::uint64_t r;
  if (IsSmall()) {
    r = small_ % m;
  } else {
    // Little-endian base-2^32 limbs, folded high to low. r < m < 2^63, so
    // (r << 32 | limb) fits comfortably in 128 bits.
    r = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      unsigned __int128 acc =
          (static_cast<unsigned __int128>(r) << 32) | limbs_[i];
      r = static_cast<std::uint64_t>(acc % m);
    }
  }
  if (negative_ && r != 0) r = m - r;
  return r;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  BigInt spare;  // Rotates through the remainder slot to recycle capacity.
  while (!b.IsZero()) {
    if (a.IsSmall() && b.IsSmall()) {
      std::uint64_t x = a.small_;
      std::uint64_t y = b.small_;
      while (y != 0) {
        std::uint64_t t = x % y;
        x = y;
        y = t;
      }
      a.small_ = x;
      return a;
    }
    {
      std::uint32_t abuf[2];
      std::uint32_t bbuf[2];
      limb::ArenaScope scratch;
      const limb::DivModSpans parts =
          limb::DivMod(a.MagnitudeSpan(abuf), b.MagnitudeSpan(bbuf), scratch);
      spare.CommitSpan(parts.remainder);
    }
    std::swap(a, b);      // a <- old b.
    std::swap(b, spare);  // b <- remainder; spare <- old a (buffer reuse).
  }
  return a;
}

BigInt BigInt::Pow(const BigInt& base, std::uint64_t exponent) {
  BigInt result(1);
  BigInt square = base;
  while (exponent != 0) {
    if (exponent & 1) result *= square;
    exponent >>= 1;
    if (exponent != 0) square *= square;
  }
  return result;
}

BigInt BigInt::FloorKthRoot(const BigInt& value, std::uint64_t k) {
  if (k == 0) throw std::domain_error("BigInt: 0th root");
  if (value.IsNegative()) throw std::domain_error("BigInt: root of negative");
  if (value.IsZero() || value.IsOne() || k == 1) return value;
  // Initial guess from the bit length: 2^ceil(bits/k) >= value^(1/k).
  std::size_t bits = value.BitLength();
  std::uint64_t guess_bits = (bits + k - 1) / k;
  BigInt x = Pow(BigInt(2), guess_bits);
  const BigInt k_big(static_cast<std::int64_t>(k));
  const BigInt k_minus_1(static_cast<std::int64_t>(k - 1));
  // Newton: x <- ((k-1)x + value / x^(k-1)) / k, monotonically decreasing
  // once above the root.
  for (;;) {
    BigInt x_pow = Pow(x, k - 1);
    BigInt next = (k_minus_1 * x + value / x_pow) / k_big;
    if (next >= x) break;
    x = std::move(next);
  }
  // Newton can land one too high for small inputs; fix up.
  while (Pow(x, k) > value) x -= BigInt(1);
  return x;
}

BigInt::RootResult BigInt::KthRoot(const BigInt& value, std::uint64_t k) {
  BigInt root = FloorKthRoot(value, k);
  bool exact = Pow(root, k) == value;
  return RootResult{std::move(root), exact};
}

bool operator<(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) return a.negative_;
  int cmp;
  if (a.IsSmall() && b.IsSmall()) {
    cmp = a.small_ < b.small_ ? -1 : (a.small_ > b.small_ ? 1 : 0);
  } else if (a.IsSmall() != b.IsSmall()) {
    // A spilled magnitude is >= 2^64, beyond any inline one.
    cmp = a.IsSmall() ? -1 : 1;
  } else {
    cmp = limb::Compare(limb::LimbSpan{a.limbs_.data(), a.limbs_.size()},
                        limb::LimbSpan{b.limbs_.data(), b.limbs_.size()});
  }
  return a.negative_ ? cmp > 0 : cmp < 0;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

std::size_t BigInt::Hash() const {
  std::size_t seed = negative_ ? 0x9e3779b97f4a7c15ull : 0;
  auto mix = [&seed](std::uint64_t v) {
    seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  };
  if (IsSmall()) {
    mix(small_);
  } else {
    for (std::uint32_t limb : limbs_) mix(limb);
  }
  return seed;
}

}  // namespace bagdet
