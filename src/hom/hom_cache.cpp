#include "hom/hom_cache.h"

#include <memory>
#include <utility>

#include "hom/hom.h"
#include "structs/index.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

/// Approximate resident cost of one memoized count: hash-node bookkeeping
/// plus the BigInt's spilled limbs (small counts are inline).
std::uint64_t CountFootprint(const BigInt& count) {
  return sizeof(std::pair<const std::uint64_t, BigInt>) +
         2 * sizeof(void*) + count.BitLength() / 8;
}

}  // namespace

BigInt HomCache::Count(StructureRef from, StructureRef to) {
  ExecCheckPoint("homcache.count");
  const std::uint64_t key = PairKey(from, to);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(key);
    if (it != counts_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  BigInt count = CountHoms(pool_.At(from), pool_.At(to));
  // Injected faults here must land before the table is touched: an
  // aborted insert unwinds without the memoization, and a rerun
  // recomputes and re-inserts cleanly.
  BAGDET_FAILPOINT("homcache/insert");
  std::lock_guard<std::mutex> lock(mu_);
  // A raced insert of the same pair finds the entry and changes nothing.
  if (counts_.emplace(key, count).second) bytes_ += CountFootprint(count);
  return count;
}

BigInt HomCache::Count(StructureRef from, const Structure& to) {
  if (to.DomainSize() > kMaxInternDomain) {
    return CountHoms(pool_.At(from), to);
  }
  return Count(from, pool_.Intern(to));
}

BigInt HomCache::Count(const Structure& from, const Structure& to) {
  if (to.DomainSize() > kMaxInternDomain) return CountHoms(from, to);
  return Count(ComponentRefs(from), pool_.Intern(to));
}

BigInt HomCache::Count(const std::vector<StructureRef>& from_components,
                       StructureRef to) {
  BigInt product(1);
  for (StructureRef ref : from_components) {
    BigInt count = Count(ref, to);
    if (count.IsZero()) return BigInt(0);
    product *= count;
  }
  return product;
}

std::vector<StructureRef> HomCache::ComponentRefs(const Structure& s) {
  const StructureCanonicalData& data = s.CanonicalData();
  std::vector<CanonicalKey> keys = ComponentKeysOf(s);
  std::vector<StructureRef> refs;
  refs.reserve(keys.size());
  // Reuse the certificates computed for `s`: a component whose class is
  // new to the pool is copied out of `s`'s cached decomposition as the
  // representative — never a second labeling search.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    StructureRef ref = pool_.FindKey(keys[i]);
    if (ref == kInvalidStructureRef) {
      Structure representative = s.Components()[i];
      // Seed the representative's canonical cache so later interns of the
      // pool's own structures (SearchDistinguisher, symbolic leaves) are
      // pure hash probes. A single component's whole-structure certificate
      // is exactly the component key's byte form.
      representative.CacheCanonicalData(
          std::make_shared<const StructureCanonicalData>(StructureCanonicalData{
              keys[i].bytes, {data.component_certificates[i]}}));
      ref = pool_.InternWithKey(keys[i], std::move(representative));
    }
    refs.push_back(ref);
  }
  return refs;
}

HomCache::Stats HomCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = counts_.size();
  stats.bytes = bytes_;
  return stats;
}

std::uint64_t HomCache::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace bagdet
