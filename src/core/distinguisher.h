// bagdet: distinguishing structures (Step 1 of Lemma 40).
//
// The paper invokes Lemma 43 (Lovász) purely existentially: for
// non-isomorphic G, G′ there is some H with |hom(G,H)| ≠ |hom(G′,H)|.
// We make this step constructive. Writing sur(G, H) for the number of
// vertex-surjective homomorphisms, inclusion–exclusion over induced
// substructures gives
//
//   sur(G, H) = Σ_{Y ⊆ dom(H)} (-1)^{|dom(H)|-|Y|} · hom(G, H[Y]),
//
// so if hom(G, ·) and hom(G′, ·) agree on every induced substructure of G
// and of G′, then sur(G, G′) = sur(G′, G′) ≥ 1 and sur(G′, G) =
// sur(G, G) ≥ 1; two vertex-bijective homomorphisms in opposite directions
// between finite structures compose to a bijective endomorphism, which is
// an automorphism (its image of the fact set has the same finite
// cardinality), forcing G ≅ G′. Hence for non-isomorphic inputs some
// induced substructure of one of them is a distinguisher — a complete,
// finite candidate family of size ≤ 2^|dom(G)| + 2^|dom(G′)|.

#ifndef BAGDET_CORE_DISTINGUISHER_H_
#define BAGDET_CORE_DISTINGUISHER_H_

#include <optional>

#include "structs/structure.h"

namespace bagdet {

class HomCache;

struct DistinguisherOptions {
  /// Upper bound on the domain size for the (complete) induced-substructure
  /// sweep; above it only the cheap candidates and a fixed random fallback
  /// (512 seeded candidates of at most 4 elements) run. Effective bound is
  /// min(this, 63): the sweep addresses subsets through a 64-bit mask.
  std::size_t max_subset_domain = 16;
  /// Memoized hom counter (hom/hom_cache.h) shared across searches:
  /// candidates repeat heavily across the pairwise Step-1 loop of
  /// BuildGoodBasis. The isomorphism pre-check interns both inputs in its
  /// pool, and small candidates' counts are cached. Null gives the search
  /// a private cache for the call. Not owned; must outlive the search.
  HomCache* hom_cache = nullptr;
};

/// How a distinguisher search ended.
enum class DistinguisherOutcome {
  kFound = 0,       ///< `distinguisher` holds an H with the counts apart.
  kIsomorphic = 1,  ///< a ≅ b — no distinguisher exists.
  /// The inputs exceed max_subset_domain (so the complete sweep never ran)
  /// and the randomized fallback exhausted its attempts. Not an error: the
  /// caller decides whether to widen the bounds or surface a typed failure.
  /// Cannot happen for query-sized components within max_subset_domain.
  kBoundsExhausted = 2,
};

/// Result of SearchDistinguisher: `distinguisher` is engaged iff
/// `outcome == kFound`.
struct DistinguisherSearch {
  DistinguisherOutcome outcome = DistinguisherOutcome::kBoundsExhausted;
  std::optional<Structure> distinguisher;
};

/// Searches for a structure H with |hom(a, H)| ≠ |hom(b, H)|, reporting
/// bound exhaustion as a typed outcome instead of an exception (the
/// pipeline's governed entry points rely on this: no well-formed input may
/// escape AnalyzeInstance/DecideBagDeterminacy as a throw).
DistinguisherSearch SearchDistinguisher(
    const Structure& a, const Structure& b,
    const DistinguisherOptions& options = DistinguisherOptions());

/// The induced substructure of `s` on the element subset encoded by `mask`
/// (bit i set = element i kept). Elements are renamed to 0..popcount-1 in
/// increasing order.
Structure InducedSubstructure(const Structure& s, std::uint64_t mask);

}  // namespace bagdet

#endif  // BAGDET_CORE_DISTINGUISHER_H_
