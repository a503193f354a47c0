// bagdet: color refinement (1-dimensional Weisfeiler–Leman).
//
// Iteratively refines a coloring of the domain by the multiset of
// (relation, position, neighbor-colors) incidences until stable. It is the
// refinement step of the canonical-labeling search (structs/canonical.h):
// the unseeded run gives the search its root partition, and each branch
// re-refines from an individualized coloring. (Refinement alone is not a
// complete invariant — it cannot tell a 6-cycle from two 3-cycles — which
// is why the search individualizes and branches.)

#ifndef BAGDET_STRUCTS_REFINEMENT_H_
#define BAGDET_STRUCTS_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "structs/structure.h"

namespace bagdet {

/// Stable coloring of the domain: colors are dense ids 0..k-1, and each
/// id is an isomorphism-invariant function of (structure, initial
/// coloring): for an isomorphism π, element e of s and π(e) of π(s) get
/// the same color.
struct ColorRefinementResult {
  std::vector<std::uint32_t> color_of_element;
  std::size_t num_colors = 0;
};

/// Runs color refinement to the stable partition.
///
/// With the default (null) seed, refinement starts from the uniform
/// coloring. A non-null `seed_colors` (with `seed_num_colors` distinct
/// ids) starts from that coloring instead — the individualization step of
/// the canonical-labeling search (structs/canonical.cpp) branches this way
/// — and returns unchanged immediately when the seed is already discrete.
ColorRefinementResult RefineColors(
    const Structure& s, const std::vector<std::uint32_t>* seed_colors = nullptr,
    std::size_t seed_num_colors = 0);

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_REFINEMENT_H_
