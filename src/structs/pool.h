// bagdet: canonical-form interning of structures.
//
// A StructurePool maps canonical keys (structs/canonical.h) to unique,
// dense StructureRef ids: two structures intern to the same ref iff they
// are isomorphic. This turns the pipeline's "is this component already
// known?" and "which basis index is this component?" questions into single
// hash-map probes instead of O(k) pairwise isomorphism tests,
// and gives the hom-count cache (hom/hom_cache.h) stable (from, to) keys.
//
// Thread safety (the concurrent-serving contract):
//   * Intern/InternWithKey/Find/FindKey take a short per-shard mutex — the
//     table is split into kNumShards shards by canonical-key hash, so
//     concurrent interns of unrelated classes do not contend.
//   * At()/KeyOf()/size() are lock-free: entries are heap-allocated once,
//     published with a release store into a chunked slot directory, and
//     never moved or mutated afterwards. A ref handed to any thread can be
//     dereferenced by any thread with a plain acquire load.
//   * Published representatives are immutable *including their lazy
//     caches*: Intern warms Structure::Index() and Structure::Components()
//     before publication and the canonical form is already cached by key
//     computation, so concurrent readers never race on the Structure's
//     internal shared_ptr caches. Warming Components() costs a connected
//     representative nothing: it is its own single component.
//
// Refs are "dense modulo sharding": the ref of the i-th class of shard s
// is i * kNumShards + s, so a pool with C classes only uses refs below
// C * kNumShards — still suitable for direct-indexed side tables.
//
// Persistent (cross-request) use: a pool owned by a long-lived
// DeterminacyService (src/serve/service.h) outlives any single
// AnalyzeInstance and accumulates classes across the whole request stream.
// Two properties support that mode without touching the per-call fast
// path:
//   * The slot directory grows by publishing new geometric blocks — old
//     blocks are never reallocated or moved, so lock-free readers stay
//     race-free at any size.
//   * ApproxBytes() tracks the projected resident footprint of every
//     retained class, so an owner can rotate generations (retire the whole
//     pool once budgets are exceeded, keeping it alive via shared_ptr for
//     in-flight requests) instead of evicting entries — per-entry eviction
//     would invalidate outstanding refs, rotation never does.

#ifndef BAGDET_STRUCTS_POOL_H_
#define BAGDET_STRUCTS_POOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "structs/canonical.h"
#include "structs/structure.h"

namespace bagdet {

/// Dense id of an interned isomorphism class within one StructurePool.
using StructureRef = std::uint32_t;

/// Sentinel for "not interned".
constexpr StructureRef kInvalidStructureRef = static_cast<StructureRef>(-1);

/// Interning pool: canonical key → unique ref, with the first-seen
/// representative structure retained per class.
class StructurePool {
 public:
  /// Number of independently locked shards (power of two).
  static constexpr std::size_t kNumShards = 8;

  StructurePool() = default;
  ~StructurePool();

  StructurePool(const StructurePool&) = delete;
  StructurePool& operator=(const StructurePool&) = delete;

  /// Interns `s`, returning the ref of its isomorphism class. The first
  /// structure of a class becomes the class representative; later
  /// isomorphic structures return the existing ref without being copied.
  /// Uses the structure's cached canonical form (Structure::CanonicalData).
  StructureRef Intern(const Structure& s);

  /// Interns `s` under an externally computed `key`. The caller guarantees
  /// key == CanonicalKeyOf(s) — used by layers that already hold the
  /// per-component certificates and must not re-run the labeling search.
  /// For lock-free readers to stay race-free, `s` should arrive with its
  /// canonical data already cached (both in-tree callers guarantee this).
  StructureRef InternWithKey(const CanonicalKey& key, Structure s);

  /// Ref of `s`'s class if already interned, kInvalidStructureRef otherwise.
  StructureRef Find(const Structure& s) const;

  /// Ref of the class with this canonical key, if interned.
  StructureRef FindKey(const CanonicalKey& key) const;

  /// Representative structure of a class. Lock-free; the reference is
  /// stable for the lifetime of the pool (entries never move). Throws
  /// std::out_of_range for refs this pool never returned.
  const Structure& At(StructureRef ref) const;

  /// Canonical key of a class. Lock-free, same lifetime as At().
  const CanonicalKey& KeyOf(StructureRef ref) const;

  /// Number of distinct isomorphism classes interned.
  std::size_t size() const;

  /// True iff `ref` was handed out by this pool (lock-free, like At()).
  bool Contains(StructureRef ref) const { return EntryAt(ref) != nullptr; }

  /// Approximate resident footprint of every retained class (the same
  /// projection Intern charges against a governing ExecContext). Owners of
  /// persistent pools use this to decide generation rotation.
  std::uint64_t ApproxBytes() const;

 private:
  struct Entry {
    CanonicalKey key;
    Structure structure;
  };

  // Chunked slot directory per shard: block pointers and entry pointers
  // are published with release stores and read with acquire loads, so
  // At()/KeyOf() need no lock. Blocks grow geometrically (block b holds
  // kFirstBlockSize << b slots, allocated lazily under the shard mutex);
  // growth only ever publishes a new block — existing blocks are never
  // reallocated or moved, which is what keeps lock-free readers safe while
  // a persistent pool grows across requests. A fresh directory is a few
  // hundred bytes, yet kMaxBlocks blocks cover the encodable ref space;
  // Intern throws std::length_error at the (unreachable in practice)
  // capacity rather than misbehaving.
  static constexpr std::size_t kFirstBlockSize = 64;
  static constexpr std::size_t kMaxBlocks = 23;
  // Every slot the directory can hold encodes to a ref below
  // kInvalidStructureRef, so ref arithmetic can never wrap.
  static_assert(kFirstBlockSize * ((std::uint64_t{1} << kMaxBlocks) - 1) *
                        kNumShards <=
                    kInvalidStructureRef,
                "slot directory exceeds the encodable ref space");
  using Slot = std::atomic<const Entry*>;
  struct Shard {
    mutable std::mutex mu;
    // Guarded by mu; values are full (encoded) refs.
    std::unordered_map<CanonicalKey, StructureRef, CanonicalKeyHash> by_key;
    std::array<std::atomic<Slot*>, kMaxBlocks> blocks{};
    std::atomic<std::uint32_t> count{0};  // Published entries in this shard.
    std::atomic<std::uint64_t> bytes{0};  // Projected footprint retained.
  };

  /// Maps a shard-local index to its (block, offset) in the geometric
  /// directory: blocks 0..b-1 hold kFirstBlockSize * (2^b - 1) slots.
  static void Locate(std::uint32_t local, std::size_t* block,
                     std::size_t* offset) {
    const unsigned long long m = local / kFirstBlockSize + 1;
    const int b = 63 - __builtin_clzll(m);
    *block = static_cast<std::size_t>(b);
    *offset = local - kFirstBlockSize * ((1ull << b) - 1);
  }

  static std::size_t ShardOf(const CanonicalKey& key) {
    // The low hash bits feed the shard's unordered_map buckets; mix the
    // high bits into shard selection so the two partitions are independent.
    return static_cast<std::size_t>(key.hash >> 57) & (kNumShards - 1);
  }

  /// Entry for a published ref, nullptr for refs never handed out.
  const Entry* EntryAt(StructureRef ref) const;

  std::array<Shard, kNumShards> shards_;
};

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_POOL_H_
