#include "hom/hom_cache.h"

#include <algorithm>

#include "hom/hom.h"
#include "structs/index.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

/// Approximate resident cost of one memoized count: list/map node
/// bookkeeping plus the BigInt's spilled limbs (small counts are inline).
std::size_t EntryFootprint(std::size_t entry_size, const BigInt& count) {
  return entry_size + 96 + count.BitLength() / 8;
}

}  // namespace

HomCache::HomCache(std::shared_ptr<StructurePool> pool)
    : pool_(pool ? std::move(pool) : std::make_shared<StructurePool>()) {}

void HomCache::InsertCount(CountShard& shard, std::uint64_t key,
                           const BigInt& count) {
  // Injected faults here must land before the shard is touched: an
  // aborted insert unwinds without the memoization, never with a
  // half-linked LRU entry, and a rerun recomputes and re-inserts cleanly.
  BAGDET_FAILPOINT("homcache/insert");
  const std::size_t footprint = EntryFootprint(sizeof(CacheEntry), count);
  const std::size_t entry_budget =
      std::max<std::size_t>(1, max_entries_ / kNumShards);
  const std::size_t byte_budget =
      std::max<std::size_t>(1, max_bytes_ / kNumShards);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.index.find(key) != shard.index.end()) return;  // Raced insert.
  shard.lru.push_front(CacheEntry{key, count, footprint});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += footprint;
  // Evict cold entries past either budget, but always keep the entry just
  // inserted — a single count larger than the whole byte budget must still
  // serve its own request.
  while (shard.lru.size() > 1 &&
         (shard.index.size() > entry_budget || shard.bytes > byte_budget)) {
    const CacheEntry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

BigInt HomCache::Count(StructureRef from, StructureRef to) {
  ExecCheckPoint("homcache.count");
  const std::uint64_t key = PairKey(from, to);
  CountShard& shard = count_shards_[ShardIndex(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->count;
    }
    ++shard.misses;
  }
  BigInt count = CountHoms(pool_->At(from), pool_->At(to));
  InsertCount(shard, key, count);
  return count;
}

BigInt HomCache::Count(StructureRef from, const Structure& to) {
  if (to.DomainSize() > kMaxInternDomain) {
    return CountHoms(pool_->At(from), to);
  }
  return Count(from, pool_->Intern(to));
}

BigInt HomCache::Count(const Structure& from, const Structure& to) {
  if (to.DomainSize() > kMaxInternDomain) return CountHoms(from, to);
  const StructureRef to_ref = pool_->Intern(to);
  BigInt product(1);
  for (StructureRef ref : ComponentRefs(from)) {
    BigInt count = Count(ref, to_ref);
    if (count.IsZero()) return BigInt(0);
    product *= count;
  }
  return product;
}

const std::vector<StructureRef>& HomCache::ComponentRefs(const Structure& s) {
  const StructureCanonicalData& data = s.CanonicalData();
  CanonicalKey whole_key = CanonicalKeyOf(s);
  std::lock_guard<std::mutex> lock(components_mu_);
  auto it = components_of_.find(whole_key);
  if (it != components_of_.end()) return it->second;
  std::vector<StructureRef> refs;
  refs.reserve(data.component_certificates.size());
  // Reuse the certificates computed for `s`: only components whose class
  // is genuinely new to the pool force a decomposition (for the
  // representative copy) — never a second labeling search.
  std::vector<Structure> components;
  bool decomposed = false;
  for (std::size_t i = 0; i < data.component_certificates.size(); ++i) {
    CanonicalKey key = ComponentKeyFromCertificate(
        s.schema(), data.component_certificates[i]);
    StructureRef ref = pool_->FindKey(key);
    if (ref == kInvalidStructureRef) {
      if (!decomposed) {
        components = ConnectedComponents(s);
        decomposed = true;
      }
      // Seed the representative's canonical cache so later interns of the
      // pool's own structures (FindDistinguisher, symbolic leaves) are
      // pure hash probes. A single component's whole-structure certificate
      // is exactly the component key's byte form.
      components[i].CacheCanonicalData(
          std::make_shared<const StructureCanonicalData>(StructureCanonicalData{
              key.bytes, {data.component_certificates[i]}}));
      ref = pool_->InternWithKey(key, std::move(components[i]));
    }
    refs.push_back(ref);
  }
  return components_of_.emplace(std::move(whole_key), std::move(refs))
      .first->second;
}

HomCache::Stats HomCache::stats() const {
  Stats total;
  for (const CountShard& shard : count_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.evictions += shard.evictions;
    total.entries += shard.index.size();
    total.bytes += shard.bytes;
  }
  {
    std::lock_guard<std::mutex> lock(components_mu_);
    total.component_entries = components_of_.size();
  }
  return total;
}

void HomCache::ResetStats() {
  for (CountShard& shard : count_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.hits = 0;
    shard.misses = 0;
    shard.evictions = 0;
  }
}

}  // namespace bagdet
