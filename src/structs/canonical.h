// bagdet: complete canonical forms for finite structures.
//
// Color refinement (structs/refinement.h) alone is an incomplete
// isomorphism invariant — it cannot tell a 6-cycle from two 3-cycles. The
// determinacy pipeline needs the *complete* equivalence "same key ⇔
// isomorphic" so that component deduplication and hom-count memoization
// become hash-map operations instead of pairwise backtracking.
//
// Canonical labeling runs per connected component by individualization–
// refinement: starting from the stable RefineColors partition, repeatedly
// pick the first non-singleton color class (color ids are isomorphism-
// invariant ranks, so the choice of *class* is canonical), branch on every
// element of that class (the only non-canonical choice), re-refine, and
// recurse until the partition is discrete. Each discrete leaf names the
// elements by their color ranks; the component certificate is the
// lexicographically smallest serialization of the relabeled fact set over
// all leaves. The structure key is the sorted multiset of component
// certificates plus a schema digest — sound and complete because two
// structures are isomorphic iff their schemas agree and their components
// match up to isomorphism with equal multiplicities.
//
// Canonicalization costs as much as a small hom count, so it runs only
// on demand and the result is cached on the Structure
// (Structure::CanonicalData, invalidated on mutation, shared across copies
// like the positional index). Always go through that accessor. Nothing is
// canonicalized at construction: a frozen query body pays the search the
// first time it is interned, which AnalyzeInstance does only for q and
// the views that pass containment (Def. 25); views that fail it never
// need a canonical form.
//
// Worst-case exponential in the component size (as is any known canonical
// labeling); intended for the query-sized structures the pipeline interns.
// This is the library's only isomorphism engine; the differential tests
// check it against an independent backtracking oracle
// (tests/reference/oracles.h).

#ifndef BAGDET_STRUCTS_CANONICAL_H_
#define BAGDET_STRUCTS_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "structs/structure.h"

namespace bagdet {

/// Hashable canonical key. Two structures get equal keys iff they are
/// isomorphic — a complete invariant, unlike the color-refinement
/// partition.
///
/// The schema digest is kept separate from the certificate bytes and is
/// computed from the *current* schema contents whenever a key is
/// assembled: schemas are shared and append-only (a parser grows one
/// schema across rules), so a digest baked into a cached certificate
/// would go stale when the schema later gains relations. The certificate
/// itself serializes only non-empty relations and is therefore invariant
/// under schema growth.
struct CanonicalKey {
  std::uint64_t schema_digest = 0;  ///< Digest of names+arities in id order.
  std::string bytes;                ///< Schema-agnostic canonical form.
  std::uint64_t hash = 0;           ///< Cached hash of (digest, bytes).

  friend bool operator==(const CanonicalKey& a, const CanonicalKey& b) {
    return a.hash == b.hash && a.schema_digest == b.schema_digest &&
           a.bytes == b.bytes;
  }
  friend bool operator!=(const CanonicalKey& a, const CanonicalKey& b) {
    return !(a == b);
  }
  friend bool operator<(const CanonicalKey& a, const CanonicalKey& b) {
    if (a.schema_digest != b.schema_digest) {
      return a.schema_digest < b.schema_digest;
    }
    return a.bytes < b.bytes;
  }
};

/// Hasher for unordered containers keyed by CanonicalKey.
struct CanonicalKeyHash {
  std::size_t operator()(const CanonicalKey& key) const {
    return static_cast<std::size_t>(key.hash);
  }
};

/// Everything one canonicalization pass produces: the schema-agnostic
/// whole-structure certificate plus the certificate of each connected
/// component, index-aligned with s.Components(). Interning layers
/// reuse the per-component certificates so decomposing a structure never
/// re-runs the search. Deliberately schema-digest-free — see CanonicalKey.
struct StructureCanonicalData {
  std::string certificate;
  std::vector<std::string> component_certificates;
};

/// Runs the canonical labeling search. Prefer Structure::CanonicalData(),
/// which caches this per structure.
StructureCanonicalData ComputeCanonicalData(const Structure& s);

/// The canonical key of `s`, assembled from the cached certificate and the
/// current schema contents: CanonicalKeyOf(a) == CanonicalKeyOf(b) iff
/// a ≅ b.
CanonicalKey CanonicalKeyOf(const Structure& s);

/// Canonical certificate of a single *connected* component (exposed for
/// tests and for interning layers; ComputeCanonicalData composes these).
/// Preconditions match Structure::Components() output: a nullary-fact
/// component has empty domain.
std::string ComponentCertificate(const Structure& component);

/// The canonical keys of s.Components(), index-aligned, assembled from the
/// cached per-component certificates without re-running the search; the
/// i-th key equals CanonicalKeyOf(s.Components()[i]).
std::vector<CanonicalKey> ComponentKeysOf(const Structure& s);

}  // namespace bagdet

#endif  // BAGDET_STRUCTS_CANONICAL_H_
