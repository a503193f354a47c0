// bagdet: small-vector-optimized fixed-width bitset.
//
// The hom core's backtracking Matcher (hom/hom.cpp) intersects two
// positional-index buckets by marking one bucket's fact ids in a bitset
// and testing the other's against it. Pipeline targets are overwhelmingly
// small, so SVOBitset stores up to kInlineWords words (256 bits) directly
// in the object and only spills to the heap above that: a bitset built on
// a backtracking node of a small target costs no allocator traffic.

#ifndef BAGDET_UTIL_BITSET_H_
#define BAGDET_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bagdet {

class SVOBitset {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SVOBitset() { words_.inline_words[0] = 0; }

  /// A bitset over [0, num_bits), all bits clear (or all set when
  /// `all_set`). Capacity is fixed at construction.
  explicit SVOBitset(std::size_t num_bits, bool all_set = false)
      : num_bits_(static_cast<std::uint32_t>(num_bits)),
        num_words_(static_cast<std::uint32_t>((num_bits + 63) / 64)) {
    std::uint64_t* w = AllocateWords();
    std::memset(w, 0, num_words_ * sizeof(std::uint64_t));
    if (all_set) SetAll();
  }

  SVOBitset(const SVOBitset& other)
      : num_bits_(other.num_bits_), num_words_(other.num_words_) {
    std::uint64_t* w = AllocateWords();
    std::memcpy(w, other.words(), num_words_ * sizeof(std::uint64_t));
  }

  SVOBitset(SVOBitset&& other) noexcept
      : num_bits_(other.num_bits_), num_words_(other.num_words_) {
    if (spilled()) {
      words_.heap = other.words_.heap;
      other.num_bits_ = 0;
      other.num_words_ = 0;
    } else {
      std::memcpy(words_.inline_words, other.words_.inline_words,
                  num_words_ * sizeof(std::uint64_t));
    }
  }

  SVOBitset& operator=(const SVOBitset& other) {
    if (this == &other) return *this;
    // Same word footprint (the overwhelmingly common case: reassigning a
    // bitset of the same size) reuses the existing storage.
    if (num_words_ != other.num_words_) {
      FreeWords();
      num_bits_ = other.num_bits_;
      num_words_ = other.num_words_;
      AllocateWords();
    } else {
      num_bits_ = other.num_bits_;
    }
    std::memcpy(words(), other.words(), num_words_ * sizeof(std::uint64_t));
    return *this;
  }

  SVOBitset& operator=(SVOBitset&& other) noexcept {
    if (this == &other) return *this;
    FreeWords();
    num_bits_ = other.num_bits_;
    num_words_ = other.num_words_;
    if (spilled()) {
      words_.heap = other.words_.heap;
      other.num_bits_ = 0;
      other.num_words_ = 0;
    } else {
      std::memcpy(words_.inline_words, other.words_.inline_words,
                  num_words_ * sizeof(std::uint64_t));
    }
    return *this;
  }

  ~SVOBitset() { FreeWords(); }

  /// Number of addressable bits (the construction-time capacity).
  std::size_t size() const { return num_bits_; }

  void Set(std::size_t i) { words()[i >> 6] |= 1ull << (i & 63); }
  void Reset(std::size_t i) { words()[i >> 6] &= ~(1ull << (i & 63)); }
  bool Test(std::size_t i) const {
    return (words()[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets every bit in [0, size()); bits past size() stay clear so Count
  /// and the scans never see phantom members.
  void SetAll() {
    std::uint64_t* w = words();
    for (std::uint32_t i = 0; i < num_words_; ++i) w[i] = ~0ull;
    const std::uint32_t tail = num_bits_ & 63;
    if (tail != 0) w[num_words_ - 1] = (1ull << tail) - 1;
  }

  void ResetAll() {
    std::memset(words(), 0, num_words_ * sizeof(std::uint64_t));
  }

  /// Number of set bits.
  std::size_t Count() const {
    const std::uint64_t* w = words();
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      total += static_cast<std::size_t>(__builtin_popcountll(w[i]));
    }
    return total;
  }

  bool Any() const {
    const std::uint64_t* w = words();
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      if (w[i] != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  /// Index of the lowest set bit, or npos when empty.
  std::size_t FindFirst() const { return FindNext(0); }

  /// Index of the lowest set bit >= `from`, or npos.
  std::size_t FindNext(std::size_t from) const {
    if (from >= num_bits_) return npos;
    const std::uint64_t* w = words();
    std::uint32_t word = static_cast<std::uint32_t>(from >> 6);
    std::uint64_t cur = w[word] & (~0ull << (from & 63));
    for (;;) {
      if (cur != 0) {
        return (static_cast<std::size_t>(word) << 6) +
               static_cast<std::size_t>(__builtin_ctzll(cur));
      }
      if (++word >= num_words_) return npos;
      cur = w[word];
    }
  }

  /// this &= other (sizes must match). Returns true iff any bit survives —
  /// fused so an emptiness check needs no second scan.
  bool IntersectWith(const SVOBitset& other) {
    std::uint64_t* w = words();
    const std::uint64_t* o = other.words();
    std::uint64_t any = 0;
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      w[i] &= o[i];
      any |= w[i];
    }
    return any != 0;
  }

  friend bool operator==(const SVOBitset& a, const SVOBitset& b) {
    if (a.num_bits_ != b.num_bits_) return false;
    return std::memcmp(a.words(), b.words(),
                       a.num_words_ * sizeof(std::uint64_t)) == 0;
  }
  friend bool operator!=(const SVOBitset& a, const SVOBitset& b) {
    return !(a == b);
  }

  /// Spill threshold in words. 4 words (256 bits) covers the fact ids of
  /// a relation on a small target while keeping sizeof(SVOBitset) at 40
  /// bytes.
  static constexpr std::size_t kInlineWords = 4;

  /// True when the words live on the heap rather than inline.
  bool spilled() const { return num_words_ > kInlineWords; }

 private:
  std::uint64_t* AllocateWords() {
    if (spilled()) {
      words_.heap = new std::uint64_t[num_words_];
      return words_.heap;
    }
    return words_.inline_words;
  }
  void FreeWords() {
    if (spilled()) delete[] words_.heap;
  }

  std::uint64_t* words() {
    return spilled() ? words_.heap : words_.inline_words;
  }
  const std::uint64_t* words() const {
    return spilled() ? words_.heap : words_.inline_words;
  }

  std::uint32_t num_bits_ = 0;
  std::uint32_t num_words_ = 0;
  union Words {
    Words() {}
    std::uint64_t inline_words[kInlineWords];
    std::uint64_t* heap;
  } words_;
};

}  // namespace bagdet

#endif  // BAGDET_UTIL_BITSET_H_
