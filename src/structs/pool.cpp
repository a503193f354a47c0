#include "structs/pool.h"

#include <stdexcept>
#include <utility>

#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

/// Projected resident footprint of interning `s`: domain + fact storage
/// (tuple headers and elements, doubled for the positional index warmed at
/// publication) + the canonical key. An admission-control estimate — the
/// pool retains entries for its whole lifetime, so a governed request is
/// charged for every *new* equivalence class it creates.
std::uint64_t ProjectedFootprintBytes(const CanonicalKey& key,
                                      const Structure& s) {
  std::uint64_t bytes = 128 + key.bytes.size() +
                        static_cast<std::uint64_t>(s.DomainSize()) *
                            sizeof(Element);
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    const std::size_t arity = s.schema().Arity(r);
    bytes += static_cast<std::uint64_t>(s.Facts(r).size()) *
             (sizeof(Tuple) + arity * sizeof(Element)) * 2;
  }
  return bytes;
}

}  // namespace

StructurePool::~StructurePool() {
  for (Shard& shard : shards_) {
    for (std::size_t b = 0; b < kMaxBlocks; ++b) {
      Slot* block = shard.blocks[b].load(std::memory_order_acquire);
      if (block == nullptr) continue;
      const std::size_t size = kFirstBlockSize << b;
      for (std::size_t i = 0; i < size; ++i) {
        delete block[i].load(std::memory_order_acquire);
      }
      delete[] block;
    }
  }
}

StructureRef StructurePool::InternWithKey(const CanonicalKey& key,
                                          Structure s) {
  const std::size_t shard_id = ShardOf(key);
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) return it->second;

  const std::uint32_t local = shard.count.load(std::memory_order_relaxed);
  std::size_t block_index, offset;
  Locate(local, &block_index, &offset);
  if (block_index >= kMaxBlocks) {
    throw std::length_error("StructurePool: shard capacity exhausted");
  }
  // Admission control: account the projected footprint against the
  // governing request *before* any pool state is created, so a rejected
  // intern leaves the shard exactly as it was (the lock_guard unwinds the
  // mutex; by_key, the blocks, count and bytes are untouched).
  const std::uint64_t footprint = ProjectedFootprintBytes(key, s);
  if (ExecContext* ctx = CurrentExecContext()) {
    ctx->Charge(footprint, "pool.intern");
  }
  BAGDET_FAILPOINT("pool/intern");
  std::unique_ptr<Entry> entry(new Entry{key, std::move(s)});
  // Freeze the representative before publication: once readers can reach
  // the entry lock-free, its lazy caches must never be (re)built. The
  // canonical form is already cached (key computation or the caller's
  // certificate reuse); the positional index and the components are
  // warmed here.
  entry->structure.Index();
  entry->structure.Components();

  // Directory growth publishes a fresh block and never touches previous
  // blocks, so concurrent lock-free readers of already-published refs are
  // unaffected no matter how large a persistent pool grows.
  Slot* block = shard.blocks[block_index].load(std::memory_order_acquire);
  if (block == nullptr) {
    block = new Slot[kFirstBlockSize << block_index]();
    shard.blocks[block_index].store(block, std::memory_order_release);
  }
  block[offset].store(entry.release(), std::memory_order_release);

  const StructureRef ref =
      static_cast<StructureRef>(local) * kNumShards +
      static_cast<StructureRef>(shard_id);
  shard.by_key.emplace(key, ref);
  shard.bytes.fetch_add(footprint, std::memory_order_relaxed);
  shard.count.store(local + 1, std::memory_order_release);
  return ref;
}

StructureRef StructurePool::Intern(const Structure& s) {
  CanonicalKey key = CanonicalKeyOf(s);
  // Look up first: only a new class pays for copying `s` into the pool.
  const StructureRef ref = FindKey(key);
  if (ref != kInvalidStructureRef) return ref;
  return InternWithKey(key, s);
}

StructureRef StructurePool::Find(const Structure& s) const {
  return FindKey(CanonicalKeyOf(s));
}

StructureRef StructurePool::FindKey(const CanonicalKey& key) const {
  const Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key);
  return it == shard.by_key.end() ? kInvalidStructureRef : it->second;
}

const StructurePool::Entry* StructurePool::EntryAt(StructureRef ref) const {
  const std::size_t shard_id = ref % kNumShards;
  const std::uint32_t local = ref / kNumShards;
  const Shard& shard = shards_[shard_id];
  // The acquire load of count pairs with Intern's release store after slot
  // publication, so a ref below count always sees its entry.
  if (local >= shard.count.load(std::memory_order_acquire)) return nullptr;
  std::size_t block_index, offset;
  Locate(local, &block_index, &offset);
  const Slot* block =
      shard.blocks[block_index].load(std::memory_order_acquire);
  if (block == nullptr) return nullptr;
  return block[offset].load(std::memory_order_acquire);
}

const Structure& StructurePool::At(StructureRef ref) const {
  const Entry* entry = EntryAt(ref);
  if (entry == nullptr) {
    throw std::out_of_range("StructurePool::At: unknown StructureRef");
  }
  return entry->structure;
}

const CanonicalKey& StructurePool::KeyOf(StructureRef ref) const {
  const Entry* entry = EntryAt(ref);
  if (entry == nullptr) {
    throw std::out_of_range("StructurePool::KeyOf: unknown StructureRef");
  }
  return entry->key;
}

std::size_t StructurePool::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t StructurePool::ApproxBytes() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace bagdet
