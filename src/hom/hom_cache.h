// bagdet: memoized homomorphism counting over interned structures.
//
// Every layer of the determinacy pipeline reduces to |hom(A, B)| for small
// A (a basis query or a component of one) against a shared set of targets:
// the radix-T scan and evaluation matrix of BuildGoodBasis, the candidate
// sweep of FindDistinguisher, and witness checking all re-count identical
// (isomorphism class, isomorphism class) pairs from scratch in the seed
// path. HomCache interns both sides in a StructurePool (structs/pool.h)
// and memoizes counts keyed by the (from-ref, to-ref) pair — sound because
// |hom| is an isomorphism invariant in both arguments.
//
// Count(Structure, Structure) decomposes the source into connected
// components first (Lemma 4(5)), so cache entries are per-(component,
// target) and shared across every query whose body contains an isomorphic
// component.
//
// Serving-tier behavior:
//   * The count table is sharded (per-shard mutex) and size-bounded: an
//     entry budget and an approximate byte budget, enforced per shard with
//     LRU eviction, keep a long-lived cache from growing without bound. An
//     evicted pair is simply recomputed on the next miss — counts are pure
//     functions of the interned classes, so eviction never changes results.
//   * Hit/miss/eviction/footprint counters are exposed through stats() for
//     tests and benchmarks; ResetStats() rezeroes the traffic counters.
//   * Count and ComponentRefs are safe to call concurrently from any
//     number of threads (the underlying StructurePool is sharded and its
//     published representatives immutable), which is what the service's
//     concurrent runners rely on. ComponentRefs' returned reference stays
//     valid until the cache is destroyed (the memo never erases entries).
//     The cache itself never starts a thread: each count runs on its
//     caller's thread.

#ifndef BAGDET_HOM_HOM_CACHE_H_
#define BAGDET_HOM_HOM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "structs/pool.h"
#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {

class HomCache {
 public:
  /// Wraps an existing pool (shared with other pipeline stages), or
  /// creates a private one when `pool` is null.
  explicit HomCache(std::shared_ptr<StructurePool> pool = nullptr);

  StructurePool& pool() { return *pool_; }
  const StructurePool& pool() const { return *pool_; }
  const std::shared_ptr<StructurePool>& pool_ptr() const { return pool_; }

  /// Interns `s` into the shared pool and returns its class ref.
  StructureRef Intern(const Structure& s) { return pool_->Intern(s); }

  /// |hom(from, to)| for two interned classes, memoized.
  BigInt Count(StructureRef from, StructureRef to);

  /// |hom(from, to)| for an interned source class against an arbitrary
  /// target (interned via its cached canonical form; targets beyond
  /// kMaxInternDomain bypass the cache like the two-Structure overload).
  BigInt Count(StructureRef from, const Structure& to);

  /// |hom(from, to)| for arbitrary structures: decomposes `from` into
  /// connected components, interns each side, and multiplies memoized
  /// per-component counts (Lemma 4(5)). Targets with more than
  /// kMaxInternDomain elements bypass the cache (canonicalizing a huge
  /// target would cost more than it saves).
  BigInt Count(const Structure& from, const Structure& to);

  /// Pool refs of the connected components of `s`, in component order —
  /// memoized per canonical class, and built from the structure's cached
  /// per-component certificates, so repeated decompositions of pipeline
  /// objects never re-run the labeling search. Thread-safe; the reference
  /// is valid until the cache is destroyed (entries are never evicted from
  /// this memo — it holds refs, not counts, and stays tiny).
  const std::vector<StructureRef>& ComponentRefs(const Structure& s);

  /// Cache-bypass threshold for the domain size of Count targets.
  static constexpr std::size_t kMaxInternDomain = 256;

  /// Retention budgets for the memoized counts, enforced per shard with
  /// LRU eviction (each of the kNumShards shards gets an equal slice; the
  /// most recent entry of a shard is never evicted, so a single oversized
  /// count still serves its own request). Set before sharing the cache
  /// across threads; defaults are serving-tier scale.
  std::size_t max_entries() const { return max_entries_; }
  void set_max_entries(std::size_t n) { max_entries_ = n; }
  std::size_t max_bytes() const { return max_bytes_; }
  void set_max_bytes(std::size_t n) { max_bytes_ = n; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;  ///< Current resident count entries.
    std::uint64_t bytes = 0;    ///< Approximate resident footprint.
    /// Resident component-decomposition memos. Unlike counts these are
    /// never evicted (callers hold references into the memo), so a
    /// fleet-wide cache's owner watches this alongside the pool's class
    /// count when deciding generation rotation (src/serve/service.h).
    std::uint64_t component_entries = 0;
  };
  Stats stats() const;

  /// Rezeroes hits/misses/evictions (entries/bytes track live state and
  /// are unaffected).
  void ResetStats();

 private:
  static constexpr std::size_t kNumShards = 8;

  static std::uint64_t PairKey(StructureRef from, StructureRef to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  static std::size_t ShardIndex(std::uint64_t key) {
    // Avalanche so nearby refs spread; low bits index the shard.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & (kNumShards - 1);
  }

  struct CacheEntry {
    std::uint64_t key = 0;
    BigInt count;
    std::size_t bytes = 0;  ///< Approximate footprint of this entry.
  };
  struct CountShard {
    mutable std::mutex mu;
    std::list<CacheEntry> lru;  // Front = most recently used.
    std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;
  };

  /// Inserts under the shard lock and evicts LRU entries past the budgets.
  void InsertCount(CountShard& shard, std::uint64_t key, const BigInt& count);

  std::shared_ptr<StructurePool> pool_;
  // Serving-tier retention defaults; set_max_entries/bytes replace them.
  std::size_t max_entries_ = std::size_t{1} << 20;
  std::size_t max_bytes_ = std::size_t{256} << 20;

  // Whole-structure canonical key → component refs. Guarded by
  // components_mu_; node-based map and never erased, so returned
  // references stay valid across concurrent inserts.
  mutable std::mutex components_mu_;
  std::unordered_map<CanonicalKey, std::vector<StructureRef>, CanonicalKeyHash>
      components_of_;

  CountShard count_shards_[kNumShards];
};

}  // namespace bagdet

#endif  // BAGDET_HOM_HOM_CACHE_H_
