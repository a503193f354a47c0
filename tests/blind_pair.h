// The "tier-0 blind" pair of non-isomorphic structures that no bounded
// distinguisher search can separate once the complete induced-substructure
// sweep is switched off (DistinguisherOptions::max_subset_domain below
// their 5 elements). Shared by the governed and serving tests that need
// SearchDistinguisher's kBoundsExhausted outcome for real.
// Header-only, no gtest dependency.
//
// Each side is a weakly connected digraph X over "E" on elements 0..3,
//   a: E = {00, 01, 03, 11, 12, 20},   b: E = {00, 02, 03, 13, 20, 22},
// whose cheap candidate counts coincide —
//   hom(Xa,Xa) = hom(Xb,Xa) = 8  and  hom(Xa,Xb) = hom(Xb,Xb) = 20
// (found by exhaustive search over all 4-vertex digraphs) — plus an anchor:
// element 4, looped in each of kAnchorRelations further binary relations,
// with A0(4, x) for x = 0..3.
//
//   * Tier 0 is blind. A hom into either side must send the anchor to the
//     only element looped in every anchor relation, the anchor, and then
//     every E-element to an E-element (the anchor has no E fact), so
//     hom(a, ·) and hom(b, ·) on the pair are the X counts above.
//   * The random fallback is blind. Its candidates have at most 4
//     elements, each potential fact kept with probability 1/2, so one has
//     an element looped in all 32 anchor relations with probability at
//     most 4 * 2^-32 — and otherwise both sides count 0 into it.
//   * The complete sweep (default bounds) separates the pair, as it does
//     any non-isomorphic pair (core/distinguisher.h).

#ifndef BAGDET_TESTS_BLIND_PAIR_H_
#define BAGDET_TESTS_BLIND_PAIR_H_

#include <memory>
#include <string>
#include <utility>

#include "structs/schema.h"
#include "structs/structure.h"

namespace bagdet {
namespace blind {

constexpr int kAnchorRelations = 32;

/// "E" (relation 0) followed by the anchor relations "A0".."A31".
inline std::shared_ptr<Schema> PairSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  for (int i = 0; i < kAnchorRelations; ++i) {
    schema->AddRelation("A" + std::to_string(i), 2);
  }
  return schema;
}

inline Structure Anchored(const std::shared_ptr<Schema>& schema,
                          const std::pair<Element, Element> (&edges)[6]) {
  Structure s(schema);
  for (const auto& [u, v] : edges) s.AddFact(0, {u, v});
  constexpr Element kAnchor = 4;
  for (int i = 0; i < kAnchorRelations; ++i) {
    s.AddFact(static_cast<RelationId>(1 + i), {kAnchor, kAnchor});
  }
  for (Element x = 0; x < kAnchor; ++x) s.AddFact(1, {kAnchor, x});
  return s;
}

inline Structure PairA(const std::shared_ptr<Schema>& schema) {
  const std::pair<Element, Element> edges[6] = {{0, 0}, {0, 1}, {0, 3},
                                                {1, 1}, {1, 2}, {2, 0}};
  return Anchored(schema, edges);
}

inline Structure PairB(const std::shared_ptr<Schema>& schema) {
  const std::pair<Element, Element> edges[6] = {{0, 0}, {0, 2}, {0, 3},
                                                {1, 3}, {2, 0}, {2, 2}};
  return Anchored(schema, edges);
}

}  // namespace blind
}  // namespace bagdet

#endif  // BAGDET_TESTS_BLIND_PAIR_H_
