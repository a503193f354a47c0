#include "util/limb_kernels.h"

#include <algorithm>
#include <stdexcept>

#include "util/failpoint.h"

namespace bagdet {
namespace limb {

namespace {

constexpr std::uint64_t kBase = 1ull << 32;

/// First arena block, in limbs (16 KiB).
constexpr std::size_t kMinBlockLimbs = std::size_t{1} << 12;

/// Retained block cache cap per thread; the outermost ArenaScope trims back
/// under this on exit so a one-off giant operand does not pin its scratch.
constexpr std::size_t kRetainBytes = std::size_t{4} << 20;

thread_local std::uint64_t g_heap_allocs = 0;

}  // namespace

std::uint64_t HeapAllocCount() { return g_heap_allocs; }
void NoteHeapAlloc() { ++g_heap_allocs; }

int Compare(LimbSpan a, LimbSpan b) {
  if (a.size != b.size) return a.size < b.size ? -1 : 1;
  for (std::size_t i = a.size; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::size_t AddInto(std::uint32_t* dst, LimbSpan a, LimbSpan b) {
  if (a.size < b.size) std::swap(a, b);
  std::uint64_t carry = 0;
  std::size_t i = 0;
  for (; i < b.size; ++i) {
    const std::uint64_t sum = carry + a[i] + b[i];
    dst[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  for (; i < a.size; ++i) {
    const std::uint64_t sum = carry + a[i];
    dst[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) dst[i++] = static_cast<std::uint32_t>(carry);
  return i;
}

std::size_t SubInPlace(std::uint32_t* a, std::size_t n, LimbSpan b) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    a[i] = static_cast<std::uint32_t>(diff);
  }
  return Trim(a, n);
}

std::size_t MulInto(std::uint32_t* dst, LimbSpan a, LimbSpan b) {
  if (a.empty() || b.empty()) return 0;
  const std::size_t total = a.size + b.size;
  std::memset(dst, 0, total * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < a.size; ++i) {
    if (a[i] == 0) continue;
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size; ++j) {
      const std::uint64_t cur =
          dst[i + j] + static_cast<std::uint64_t>(a[i]) * b[j] + carry;
      dst[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    dst[i + b.size] = static_cast<std::uint32_t>(carry);
  }
  return Trim(dst, total);
}

DivModSpans DivMod(LimbSpan a, LimbSpan b, ArenaScope& scratch) {
  if (b.empty()) throw std::domain_error("BigInt: division by zero");
  if (Compare(a, b) < 0) {
    return DivModSpans{LimbSpan{}, LimbSpan{scratch.Copy(a), a.size}};
  }
  if (b.size == 1) {
    // Schoolbook short division.
    std::uint32_t* q = scratch.Copy(a);
    std::uint64_t rem = 0;
    for (std::size_t i = a.size; i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | q[i];
      q[i] = static_cast<std::uint32_t>(cur / b[0]);
      rem = cur % b[0];
    }
    std::uint32_t* r = scratch.Alloc(1);
    std::size_t rn = 0;
    if (rem != 0) {
      r[0] = static_cast<std::uint32_t>(rem);
      rn = 1;
    }
    return DivModSpans{LimbSpan{q, Trim(q, a.size)}, LimbSpan{r, rn}};
  }
  // Knuth algorithm D with base 2^32.
  int shift = 0;
  for (std::uint32_t top = b[b.size - 1]; top < 0x80000000u; top <<= 1) {
    ++shift;
  }
  const std::size_t n = b.size;
  // v = b << shift: exactly n limbs (the shift puts v's top bit at 2^31).
  std::uint32_t* v = scratch.Alloc(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = shift == 0 ? b[i]
                      : (b[i] << shift) |
                            (i > 0 ? static_cast<std::uint32_t>(
                                         static_cast<std::uint64_t>(b[i - 1]) >>
                                         (32 - shift))
                                   : 0u);
  }
  // u = a << shift, with one spare high limb for the algorithm's u[j+n].
  std::uint32_t* u = scratch.AllocZero(a.size + 2);
  for (std::size_t i = 0; i < a.size; ++i) {
    if (shift == 0) {
      u[i] = a[i];
    } else {
      u[i] |= a[i] << shift;
      u[i + 1] |= static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(a[i]) >> (32 - shift));
    }
  }
  const std::size_t ulen = Trim(u, a.size + 1);
  const std::size_t m = ulen - n;  // a >= b, so ulen >= n.
  std::uint32_t* q = scratch.AllocZero(m + 1);
  const std::uint64_t v_top = v[n - 1];
  const std::uint64_t v_next = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v_top;
    std::uint64_t r_hat = numerator % v_top;
    while (q_hat >= kBase || q_hat * v_next > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v_top;
      if (r_hat >= kBase) break;
    }
    // Multiply-subtract q_hat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) - borrow -
                          static_cast<std::int64_t>(product & 0xffffffffu);
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t top_diff = static_cast<std::int64_t>(u[j + n]) - borrow -
                            static_cast<std::int64_t>(carry);
    if (top_diff < 0) {
      // q_hat was one too large: add v back once.
      top_diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = add_carry + u[i + j] + v[i];
        u[i + j] = static_cast<std::uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      top_diff += static_cast<std::int64_t>(add_carry);
      top_diff &= 0xffffffff;
    }
    u[j + n] = static_cast<std::uint32_t>(top_diff);
    q[j] = static_cast<std::uint32_t>(q_hat);
  }
  // Un-normalize the remainder (first n limbs of u).
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      u[i] >>= shift;
      if (i + 1 < n) u[i] |= u[i + 1] << (32 - shift);
    }
  }
  return DivModSpans{LimbSpan{q, Trim(q, m + 1)}, LimbSpan{u, Trim(u, n)}};
}

LimbArena& LimbArena::ForThread() {
  thread_local LimbArena arena;
  return arena;
}

std::uint32_t* LimbArena::Allocate(std::size_t limbs) {
  if (limbs == 0) limbs = 1;
  for (;;) {
    if (active_ < blocks_.size()) {
      Block& blk = blocks_[active_];
      if (blk.capacity - blk.used >= limbs) {
        std::uint32_t* p = blk.data.get() + blk.used;
        blk.used += limbs;
        return p;
      }
      if (active_ + 1 < blocks_.size()) {
        // Spill into the next retained block (they grow geometrically).
        ++active_;
        blocks_[active_].used = 0;
        continue;
      }
    }
    NewBlock(limbs);
  }
}

void LimbArena::NewBlock(std::size_t min_limbs) {
  // A real heap acquisition: give governed requests a cancellation point
  // and a budget charge, and let fault injection model bignum OOM here.
  ExecCheckPoint("bigint/arena");
  BAGDET_FAILPOINT("bigint/alloc");
  std::size_t capacity =
      blocks_.empty() ? kMinBlockLimbs : blocks_.back().capacity * 2;
  capacity = std::max(capacity, min_limbs);
  Block block;
  block.data.reset(new std::uint32_t[capacity]);
  block.capacity = capacity;
  block.used = 0;
  NoteHeapAlloc();
  blocks_.push_back(std::move(block));
  retained_bytes_ += capacity * sizeof(std::uint32_t);
  active_ = blocks_.size() - 1;
  if (innermost_ != nullptr) {
    // May throw ExecInterrupted past the caller; the arena stays
    // consistent (block registered) and the scope unwind rewinds.
    innermost_->charge_.Update(innermost_->charge_.held() +
                               capacity * sizeof(std::uint32_t));
  }
}

void LimbArena::Rewind(Mark mark) {
  active_ = mark.block;
  if (active_ < blocks_.size()) blocks_[active_].used = mark.used;
}

void LimbArena::TrimRetained(std::size_t cap_bytes) {
  while (blocks_.size() > 1 && retained_bytes_ > cap_bytes) {
    retained_bytes_ -= blocks_.back().capacity * sizeof(std::uint32_t);
    blocks_.pop_back();
  }
  if (!blocks_.empty() && active_ >= blocks_.size()) {
    active_ = blocks_.size() - 1;
    blocks_[active_].used = blocks_[active_].capacity;  // Treat as full.
  }
}

ArenaScope::ArenaScope()
    : arena_(LimbArena::ForThread()),
      mark_(arena_.Position()),
      parent_(arena_.innermost_),
      charge_("bigint/arena") {
  arena_.innermost_ = this;
}

ArenaScope::~ArenaScope() {
  arena_.innermost_ = parent_;
  arena_.Rewind(mark_);
  if (parent_ == nullptr) arena_.TrimRetained(kRetainBytes);
}

}  // namespace limb
}  // namespace bagdet
