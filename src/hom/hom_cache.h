// bagdet: memoized homomorphism counting over interned structures.
//
// Every layer of the determinacy pipeline reduces to |hom(A, B)| for small
// A (a basis query or a component of one) against a shared set of targets:
// the radix-T scan and evaluation matrix of BuildGoodBasis, the candidate
// sweep of SearchDistinguisher, and witness checking all meet identical
// (isomorphism class, isomorphism class) pairs. HomCache interns both
// sides in a StructurePool (structs/pool.h) and memoizes counts keyed by
// the (from-ref, to-ref) pair — sound because |hom| is an isomorphism
// invariant in both arguments.
//
// Count(Structure, Structure) decomposes the source into connected
// components first (Lemma 4(5)), so cache entries are per-(component,
// target) and shared across every query whose body contains an isomorphic
// component.
//
// Serving-tier behavior:
//   * The count table is sharded (per-shard mutex). The cache never
//     evicts: its owner bounds it by retiring the whole cache together
//     with its pool (generation rotation, src/serve/service.h), which
//     watches ApproxBytes() — the resident footprint of the counts — next
//     to the pool's own.
//   * Hit/miss/footprint counters are exposed through stats() for tests
//     and benchmarks.
//   * Count and ComponentRefs are safe to call concurrently from any
//     number of threads (the underlying StructurePool is sharded and its
//     published representatives immutable), which is what the service's
//     concurrent runners rely on. The cache itself never starts a thread:
//     each count runs on its caller's thread.

#ifndef BAGDET_HOM_HOM_CACHE_H_
#define BAGDET_HOM_HOM_CACHE_H_

#include <atomic>
#include <cstdint>
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
  /// The cache owns its pool; pipeline stages that intern structures
  /// reach it through pool().
  StructurePool& pool() { return pool_; }
  const StructurePool& pool() const { return pool_; }

  /// Interns `s` into the cache's pool and returns its class ref.
  StructureRef Intern(const Structure& s) { return pool_.Intern(s); }

  /// |hom(from, to)| for two interned classes, memoized.
  BigInt Count(StructureRef from, StructureRef to);

  /// |hom(from, to)| for an interned source class against an arbitrary
  /// target (interned via its cached canonical form; targets beyond
  /// kMaxInternDomain bypass the cache like the two-Structure overload).
  BigInt Count(StructureRef from, const Structure& to);

  /// |hom(from, to)| for a source given by its component refs (as
  /// ComponentRefs returns them): the product of memoized per-component
  /// counts (Lemma 4(5)). Lets a caller that counts one source against
  /// many targets key the source once.
  BigInt Count(const std::vector<StructureRef>& from_components,
               StructureRef to);

  /// |hom(from, to)| for arbitrary structures: decomposes `from` into
  /// connected components, interns each side, and multiplies memoized
  /// per-component counts (Lemma 4(5)). Targets with more than
  /// kMaxInternDomain elements bypass the cache (canonicalizing a huge
  /// target would cost more than it saves).
  BigInt Count(const Structure& from, const Structure& to);

  /// Pool refs of the connected components of `s`, in component order,
  /// built from the structure's cached per-component certificates: a
  /// component whose class is new to the pool is interned without a second
  /// labeling search. Thread-safe.
  std::vector<StructureRef> ComponentRefs(const Structure& s);

  /// Cache-bypass threshold for the domain size of Count targets.
  static constexpr std::size_t kMaxInternDomain = 256;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Always 0: the cache never evicts (generation rotation retires it
    /// whole). Kept for readers that still report it.
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;  ///< Current resident count entries.
    std::uint64_t bytes = 0;    ///< ApproxBytes() at the time of the call.
  };
  Stats stats() const;

  /// Approximate resident footprint of the memoized counts. Lock-free;
  /// owners of long-lived caches add it to the pool's ApproxBytes() when
  /// deciding generation rotation.
  std::uint64_t ApproxBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

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

  struct CountShard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, BigInt> counts;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Memoizes a freshly computed count under the shard lock.
  void InsertCount(CountShard& shard, std::uint64_t key, const BigInt& count);

  StructurePool pool_;
  std::atomic<std::uint64_t> bytes_{0};  ///< Footprint of the counts.

  CountShard count_shards_[kNumShards];
};

}  // namespace bagdet

#endif  // BAGDET_HOM_HOM_CACHE_H_
