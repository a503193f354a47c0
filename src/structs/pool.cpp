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

StructureRef StructurePool::InternWithKey(const CanonicalKey& key,
                                          Structure s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return it->second;

  if (structures_.size() >= kInvalidStructureRef) {
    throw std::length_error("StructurePool: ref space exhausted");
  }
  // Admission control: account the projected footprint against the
  // governing request *before* any pool state changes, so a rejected
  // intern leaves the pool exactly as it was.
  const std::uint64_t footprint = ProjectedFootprintBytes(key, s);
  if (ExecContext* ctx = CurrentExecContext()) {
    ctx->Charge(footprint, "pool.intern");
  }
  BAGDET_FAILPOINT("pool/intern");
  // Freeze the representative before its ref can be found: once other
  // threads can reach it, its lazy caches must never be (re)built. The
  // canonical form is already cached (key computation or the caller's
  // certificate reuse); the positional index and the components are
  // warmed here.
  s.Index();
  s.Components();

  const StructureRef ref = static_cast<StructureRef>(structures_.size());
  // Both inserts have the strong guarantee; undoing the first if the
  // second throws keeps a failed intern from changing the pool.
  structures_.push_back(std::move(s));
  try {
    by_key_.emplace(key, ref);
  } catch (...) {
    structures_.pop_back();
    throw;
  }
  bytes_ += footprint;
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  return it == by_key_.end() ? kInvalidStructureRef : it->second;
}

const Structure& StructurePool::At(StructureRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ref >= structures_.size()) {
    throw std::out_of_range("StructurePool::At: unknown StructureRef");
  }
  return structures_[ref];
}

std::size_t StructurePool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return structures_.size();
}

bool StructurePool::Contains(StructureRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ref < structures_.size();
}

std::uint64_t StructurePool::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace bagdet
