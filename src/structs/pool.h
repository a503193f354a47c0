// bagdet: canonical-form interning of structures.
//
// A StructurePool maps canonical keys (structs/canonical.h) to unique,
// dense StructureRef ids: two structures intern to the same ref iff they
// are isomorphic, and the i-th class interned gets ref i. This turns the
// pipeline's "is this component already known?" and "which basis index is
// this component?" questions into single hash-map probes instead of O(k)
// pairwise isomorphism tests, and gives the hom-count cache
// (hom/hom_cache.h) stable (from, to) keys.
//
// Thread safety (the concurrent-serving contract):
//   * One mutex guards the whole pool; every member function holds it for
//     one hash probe, one insert or one index. Representatives live in a
//     std::deque, whose push_back never moves existing elements, so a
//     reference returned by At() stays valid while other threads intern.
//   * Published representatives are immutable *including their lazy
//     caches*: Intern warms Structure::Index() and Structure::Components()
//     before a ref can be found, and the canonical form is already cached
//     by key computation, so concurrent readers never race on the
//     Structure's internal shared_ptr caches. Warming Components() costs a
//     connected representative nothing: it is its own single component.
//
// Persistent (cross-request) use: a pool owned by a long-lived
// DeterminacyService (src/serve/service.h) outlives any single
// AnalyzeInstance and accumulates classes across the whole request stream.
// ApproxBytes() tracks the projected resident footprint of every retained
// class, so an owner can rotate generations (retire the whole pool once
// budgets are exceeded, keeping it alive via shared_ptr for in-flight
// requests) instead of evicting entries — per-entry eviction would
// invalidate outstanding refs, rotation never does.

#ifndef BAGDET_STRUCTS_POOL_H_
#define BAGDET_STRUCTS_POOL_H_

#include <cstdint>
#include <deque>
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
  StructurePool() = default;

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
  /// For concurrent readers of At() to stay race-free, `s` should arrive
  /// with its canonical data already cached (both in-tree callers
  /// guarantee this).
  StructureRef InternWithKey(const CanonicalKey& key, Structure s);

  /// Ref of `s`'s class if already interned, kInvalidStructureRef otherwise.
  StructureRef Find(const Structure& s) const;

  /// Ref of the class with this canonical key, if interned.
  StructureRef FindKey(const CanonicalKey& key) const;

  /// Representative structure of a class. The reference is stable for the
  /// lifetime of the pool (representatives never move). Throws
  /// std::out_of_range for refs this pool never returned.
  const Structure& At(StructureRef ref) const;

  /// Number of distinct isomorphism classes interned.
  std::size_t size() const;

  /// True iff `ref` was handed out by this pool.
  bool Contains(StructureRef ref) const;

  /// Approximate resident footprint of every retained class (the same
  /// projection Intern charges against a governing ExecContext). Owners of
  /// persistent pools use this to decide generation rotation.
  std::uint64_t ApproxBytes() const;

 private:
  mutable std::mutex mu_;
  // All guarded by mu_. structures_[ref] is the representative of class
  // ref; by_key_ holds each class's canonical key, once.
  std::unordered_map<CanonicalKey, StructureRef, CanonicalKeyHash> by_key_;
  std::deque<Structure> structures_;
  std::uint64_t bytes_ = 0;  // Projected footprint retained.
};

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_POOL_H_
