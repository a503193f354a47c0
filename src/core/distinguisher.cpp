#include "core/distinguisher.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "structs/generator.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace bagdet {

Structure InducedSubstructure(const Structure& s, std::uint64_t mask) {
  if (s.DomainSize() > 64) {
    throw std::invalid_argument(
        "InducedSubstructure: domain has " + std::to_string(s.DomainSize()) +
        " elements; a 64-bit mask can only address 64 (the subset sweep "
        "does not apply — lower DistinguisherOptions::max_subset_domain)");
  }
  std::vector<Element> rename(s.DomainSize(), 0);
  std::size_t kept = 0;
  for (std::size_t e = 0; e < s.DomainSize(); ++e) {
    if (mask & (1ull << e)) rename[e] = static_cast<Element>(kept++);
  }
  Structure result(s.schema_ptr(), kept);
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    for (const Tuple& t : s.Facts(r)) {
      bool inside = true;
      for (Element e : t) {
        if (!(mask & (1ull << e))) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      Tuple renamed(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) renamed[i] = rename[t[i]];
      result.AddFact(r, std::move(renamed));
    }
  }
  return result;
}

namespace {

/// Sweep and random candidates with at most this many domain elements have
/// their counts cached: small candidates repeat across the pairwise Step-1
/// loop of BuildGoodBasis and amortize their canonical labeling, while a
/// large one-shot candidate (automorphism-sparse inputs distinguishing late
/// in the sweep) would pay labeling plus permanent pool retention for a
/// count that is never reused, so it is counted transiently.
constexpr std::size_t kMaxCachedCandidateDomain = 10;

/// Random fallback for inputs past the sweep: attempts, largest candidate
/// domain and RNG seed (fixed, so a search is deterministic).
constexpr int kRandomAttempts = 512;
constexpr std::size_t kMaxRandomDomain = 4;
constexpr std::uint64_t kRandomSeed = 17;

/// The two structures under comparison, each with its component refs
/// keyed once per search rather than once per candidate.
struct Pair {
  const Structure& a;
  const Structure& b;
  std::vector<StructureRef> a_refs;
  std::vector<StructureRef> b_refs;
};

/// True iff `candidate` separates the counts of a and b. Tier-0
/// candidates (the inputs themselves) pass `cached = true`: the
/// isomorphism pre-check interned them already, so only the cache's own
/// domain bound applies to them.
bool Distinguishes(const Pair& pair, const Structure& candidate,
                   HomCache& cache, bool cached) {
  const std::size_t cache_limit =
      cached ? HomCache::kMaxInternDomain : kMaxCachedCandidateDomain;
  if (candidate.DomainSize() <= cache_limit) {
    const StructureRef to = cache.Intern(candidate);
    return cache.Count(pair.a_refs, to) != cache.Count(pair.b_refs, to);
  }
  return CountHoms(pair.a, candidate) != CountHoms(pair.b, candidate);
}

}  // namespace

DistinguisherSearch SearchDistinguisher(const Structure& a, const Structure& b,
                                        const DistinguisherOptions& options) {
  std::optional<HomCache> private_cache;
  HomCache& cache = options.hom_cache != nullptr ? *options.hom_cache
                                                 : private_cache.emplace();
  if (cache.pool().Intern(a) == cache.pool().Intern(b)) {
    return {DistinguisherOutcome::kIsomorphic, std::nullopt};
  }
  const Pair pair{a, b, cache.ComponentRefs(a), cache.ComponentRefs(b)};
  // Tier 0: the structures themselves (frequent cheap winners).
  if (Distinguishes(pair, a, cache, true)) {
    return {DistinguisherOutcome::kFound, a};
  }
  if (Distinguishes(pair, b, cache, true)) {
    return {DistinguisherOutcome::kFound, b};
  }
  // Tier 1: the complete induced-substructure family (see header). The
  // sweep mask is 64-bit, so domains of 64+ elements fall through to the
  // random tier regardless of max_subset_domain.
  const std::size_t sweep_limit =
      options.max_subset_domain < 64 ? options.max_subset_domain : 63;
  for (const Structure* side : {&a, &b}) {
    if (side->DomainSize() > sweep_limit) continue;
    const std::uint64_t limit = 1ull << side->DomainSize();
    for (std::uint64_t mask = 0; mask < limit; ++mask) {
      ExecCheckPoint("distinguisher.sweep");
      Structure candidate = InducedSubstructure(*side, mask);
      if (Distinguishes(pair, candidate, cache, false)) {
        return {DistinguisherOutcome::kFound, std::move(candidate)};
      }
    }
    // Both sweeps completing without a hit is impossible for non-isomorphic
    // inputs (see the header's completeness argument), so reaching the end
    // of the second sweep indicates a bug.
  }
  if (a.DomainSize() <= sweep_limit && b.DomainSize() <= sweep_limit) {
    throw std::logic_error(
        "SearchDistinguisher: induced-substructure sweep found nothing for "
        "non-isomorphic structures (internal invariant violated)");
  }
  // Tier 2: randomized fallback for oversized inputs. Exhausting it is a
  // typed outcome, not an exception — callers own the policy.
  Rng rng(kRandomSeed);
  for (int attempt = 0; attempt < kRandomAttempts; ++attempt) {
    ExecCheckPoint("distinguisher.sweep");
    std::size_t domain = 1 + rng.Below(kMaxRandomDomain);
    Structure candidate = RandomStructure(a.schema_ptr(), domain, &rng);
    if (Distinguishes(pair, candidate, cache, false)) {
      return {DistinguisherOutcome::kFound, std::move(candidate)};
    }
  }
  return {DistinguisherOutcome::kBoundsExhausted, std::nullopt};
}

}  // namespace bagdet
