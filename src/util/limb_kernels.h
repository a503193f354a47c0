// bagdet: span-based limb kernels and the per-thread scratch arena backing
// BigInt's heap representation.
//
// Big-value loops (exact elimination, the counterexample walk's integer
// sign tests) execute many short BigInt operations whose operands hover
// around a steady-state size. Before this layer existed, every such
// operation copied its operands into fresh `std::vector` limb buffers and
// allocated another one for the result.
// The kernels here are destination-passing instead: callers hand in
// `LimbSpan` views of existing magnitudes (no copy, either representation)
// and raw output buffers carved from a per-thread bump arena, and the
// result is committed back into the BigInt's retained capacity in one
// place. In steady state an arithmetic loop performs zero heap allocations.
//
// Ownership rules:
//  - `LimbSpan` never owns; it is valid as long as the underlying BigInt
//    (or arena scope) is alive and unmutated.
//  - `ArenaScope` is a stack-discipline lease on the calling thread's
//    `LimbArena`: every buffer Alloc'd from a scope dies when the scope
//    does. Scopes nest; buffers from an outer scope survive inner scopes.
//  - Arena blocks never move, so spans into the arena stay valid across
//    further Allocs in the same scope.
//
// Governance: growing the arena (a real heap allocation) fires
// `ExecCheckPoint("bigint/arena")` and charges the new block's bytes to the
// innermost scope's `ScopedCharge`, so a governed request with a memory
// budget trips cleanly inside a huge multiply instead of OOMing, and
// cancellation lands at block boundaries. The retained block cache
// (<= kRetainBytes per thread) is working-set, not billed to any request.

#ifndef BAGDET_UTIL_LIMB_KERNELS_H_
#define BAGDET_UTIL_LIMB_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/exec_context.h"

namespace bagdet {
namespace limb {

/// Non-owning view of a little-endian base-2^32 magnitude. Trimmed means
/// no trailing (most-significant) zero limbs; kernels require trimmed
/// inputs unless noted and produce trimmed sizes.
struct LimbSpan {
  const std::uint32_t* data = nullptr;
  std::size_t size = 0;

  constexpr LimbSpan() = default;
  constexpr LimbSpan(const std::uint32_t* d, std::size_t n)
      : data(d), size(n) {}

  bool empty() const { return size == 0; }
  std::uint32_t operator[](std::size_t i) const { return data[i]; }
};

/// Size of `p[0..n)` with trailing zero limbs stripped.
inline std::size_t Trim(const std::uint32_t* p, std::size_t n) {
  while (n > 0 && p[n - 1] == 0) --n;
  return n;
}

/// Magnitude comparison of trimmed spans: -1, 0, +1.
int Compare(LimbSpan a, LimbSpan b);

/// dst := a + b. Capacity required: max(a.size, b.size) + 1. `dst` must not
/// alias `a` or `b`. Returns the trimmed result size.
std::size_t AddInto(std::uint32_t* dst, LimbSpan a, LimbSpan b);

/// a[0..n) -= b, in place; requires magnitude(a) >= magnitude(b). `a` must
/// not alias `b`. Returns the trimmed result size.
std::size_t SubInPlace(std::uint32_t* a, std::size_t n, LimbSpan b);

/// dst := a * b, schoolbook. Capacity required: a.size + b.size. `dst`
/// must not alias `a` or `b`. Returns the trimmed result size.
std::size_t MulInto(std::uint32_t* dst, LimbSpan a, LimbSpan b);

class ArenaScope;

struct DivModSpans {
  LimbSpan quotient;
  LimbSpan remainder;
};

/// Knuth algorithm D over trimmed spans; `b` must be nonzero. Both results
/// are freshly allocated from `scratch` (they never alias `a`/`b`), so the
/// caller may commit them into BigInts that alias the inputs.
DivModSpans DivMod(LimbSpan a, LimbSpan b, ArenaScope& scratch);

/// Thread-local count of real heap acquisitions made on behalf of BigInt
/// arithmetic (arena block growth + limb-vector capacity growth). The
/// end-to-end benchmark reports its per-op delta; steady-state arithmetic
/// loops should not move this counter.
std::uint64_t HeapAllocCount();
void NoteHeapAlloc();

/// Per-thread bump allocator for kernel scratch. Blocks are geometric and
/// never move; freeing is wholesale via ArenaScope rewind. Do not use
/// directly — go through ArenaScope.
class LimbArena {
 public:
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  /// The calling thread's arena.
  static LimbArena& ForThread();

 private:
  friend class ArenaScope;

  struct Block {
    std::unique_ptr<std::uint32_t[]> data;
    std::size_t capacity = 0;  // In limbs.
    std::size_t used = 0;      // In limbs.
  };

  std::uint32_t* Allocate(std::size_t limbs);
  void NewBlock(std::size_t min_limbs);
  Mark Position() const { return Mark{active_, Used(active_)}; }
  void Rewind(Mark mark);
  void TrimRetained(std::size_t cap_bytes);
  std::size_t Used(std::size_t block) const {
    return block < blocks_.size() ? blocks_[block].used : 0;
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t retained_bytes_ = 0;
  ArenaScope* innermost_ = nullptr;
};

/// RAII lease on the thread's arena: captures the bump position on entry
/// and rewinds on exit, releasing every buffer allocated through it (and
/// through any nested scope that already exited). The outermost scope also
/// shrinks the retained block cache back under the cap, so a one-off giant
/// multiply does not pin its scratch forever.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// Uninitialized buffer of `limbs` 32-bit limbs.
  std::uint32_t* Alloc(std::size_t limbs) { return arena_.Allocate(limbs); }

  /// Zero-filled buffer.
  std::uint32_t* AllocZero(std::size_t limbs) {
    std::uint32_t* p = Alloc(limbs);
    std::memset(p, 0, limbs * sizeof(std::uint32_t));
    return p;
  }

  /// Copy of `s` with room for `extra` more limbs at the top.
  std::uint32_t* Copy(LimbSpan s, std::size_t extra = 0) {
    std::uint32_t* p = Alloc(s.size + extra);
    if (s.size != 0) std::memcpy(p, s.data, s.size * sizeof(std::uint32_t));
    return p;
  }

  LimbArena& arena() { return arena_; }

 private:
  friend class LimbArena;

  LimbArena& arena_;
  LimbArena::Mark mark_;
  ArenaScope* parent_;
  // Bytes of fresh block storage acquired while this scope was innermost,
  // billed against the governed request's memory budget.
  ScopedCharge charge_;
};

}  // namespace limb
}  // namespace bagdet

#endif  // BAGDET_UTIL_LIMB_KERNELS_H_
