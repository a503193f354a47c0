#include "structs/refinement.h"

#include <algorithm>

#include "util/hash.h"

namespace bagdet {

ColorRefinementResult RefineColors(const Structure& s,
                                   const std::vector<std::uint32_t>* seed_colors,
                                   std::size_t seed_num_colors) {
  const std::size_t n = s.DomainSize();
  const bool seeded = seed_colors != nullptr;
  ColorRefinementResult result;
  if (seeded) {
    result.color_of_element = *seed_colors;
    result.num_colors = seed_num_colors;
  } else {
    result.color_of_element.assign(n, 0);
    result.num_colors = n == 0 ? 0 : 1;
  }
  if (n == 0) return result;
  // An already-discrete seed cannot refine further; returning unchanged
  // (instead of re-ranking ids through one more signature round) keeps
  // the search's leaf labelings identical to the pre-fold behavior.
  if (seeded && result.num_colors == n) return result;

  // Invariant: colors are canonical (depend only on the isomorphism type)
  // because each round's new color is the RANK of the element's signature
  // among all signatures, and signatures are built from canonical colors.
  for (std::size_t round = 0; round < n; ++round) {
    // Signature: previous color mixed with a commutative accumulation of
    // position-tagged colored-tuple hashes over all incident facts.
    std::vector<std::uint64_t> signature(n);
    for (std::size_t e = 0; e < n; ++e) {
      signature[e] = MixHash(0x5bd1e995, result.color_of_element[e]);
    }
    for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
      for (const Tuple& t : s.Facts(r)) {
        std::uint64_t tuple_hash = (static_cast<std::uint64_t>(r) + 1) << 32;
        for (Element e : t) {
          tuple_hash = MixHash(tuple_hash, result.color_of_element[e] + 1);
        }
        for (std::size_t pos = 0; pos < t.size(); ++pos) {
          signature[t[pos]] += MixHash(tuple_hash, pos + 1);
        }
      }
    }
    // Canonical re-coloring: rank within the sorted signature list.
    std::vector<std::uint64_t> sorted = signature;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<std::uint32_t> next(n);
    for (std::size_t e = 0; e < n; ++e) {
      next[e] = static_cast<std::uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), signature[e]) -
          sorted.begin());
    }
    bool stable = sorted.size() == result.num_colors;
    result.color_of_element = std::move(next);
    result.num_colors = sorted.size();
    if (stable) break;
    // A seeded (search-branch) run stops as soon as the partition is
    // discrete — one signature round on a discrete coloring cannot merge
    // classes, and the search only consumes the partition.
    if (seeded && result.num_colors == n) break;
  }
  return result;
}

}  // namespace bagdet
