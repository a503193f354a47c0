// Independent reference oracles for the differential tests.
//
// Each function here answers a question the library answers faster — "are
// A and B isomorphic?", "how many homomorphisms?", "does color refinement
// tell A from B?" — by the most direct method, built only on
// Structure::Facts(), DomainSize() and the public EnumerateHoms. None of
// them reads a canonical form or a refinement result: this header must
// not include structs/canonical.h or structs/refinement.h, so a
// differential test never compares a library function with itself. The
// determinant oracle likewise reads only Mat entries and Rational
// arithmetic, never linalg/gauss.h.
// Query-sized inputs only; every oracle is exponential somewhere.
// Header-only, no gtest dependency.

#ifndef BAGDET_TESTS_REFERENCE_ORACLES_H_
#define BAGDET_TESTS_REFERENCE_ORACLES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "hom/hom.h"
#include "linalg/matrix.h"
#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {
namespace reference {

namespace internal {

/// profiles[e][slot] = number of facts with e at that (relation, position)
/// slot, slots numbered relation by relation.
inline std::vector<std::vector<std::uint32_t>> ElementProfiles(
    const Structure& s) {
  std::size_t slots = 0;
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    slots += s.schema().Arity(r);
  }
  std::vector<std::vector<std::uint32_t>> profiles(
      s.DomainSize(), std::vector<std::uint32_t>(slots, 0));
  std::size_t base = 0;
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    for (const Tuple& t : s.Facts(r)) {
      for (std::size_t pos = 0; pos < t.size(); ++pos) {
        ++profiles[t[pos]][base + pos];
      }
    }
    base += s.schema().Arity(r);
  }
  return profiles;
}

/// Extends `mapping` (fixed below `next`) to a bijection a → b that sends
/// the facts of a exactly onto the facts of b, trying only images with
/// the same profile.
inline bool ExtendIsomorphism(
    const Structure& a, const Structure& b,
    const std::vector<std::vector<std::uint32_t>>& pa,
    const std::vector<std::vector<std::uint32_t>>& pb,
    std::vector<Element>& mapping, std::vector<bool>& used, std::size_t next) {
  const std::size_t n = a.DomainSize();
  if (next == n) {
    // Equal fact counts per relation were checked up front, so mapping
    // every fact of a onto a fact of b is onto.
    for (RelationId r = 0; r < a.schema().NumRelations(); ++r) {
      for (const Tuple& t : a.Facts(r)) {
        Tuple mapped(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) mapped[i] = mapping[t[i]];
        if (!b.HasFact(r, mapped)) return false;
      }
    }
    return true;
  }
  for (Element candidate = 0; candidate < n; ++candidate) {
    if (used[candidate] || pa[next] != pb[candidate]) continue;
    mapping[next] = candidate;
    used[candidate] = true;
    if (ExtendIsomorphism(a, b, pa, pb, mapping, used, next + 1)) return true;
    used[candidate] = false;
  }
  return false;
}

}  // namespace internal

/// Exact isomorphism test: backtracking over profile-compatible bijections.
inline bool IsIsomorphic(const Structure& a, const Structure& b) {
  if (a.schema() != b.schema()) return false;
  if (a.DomainSize() != b.DomainSize()) return false;
  for (RelationId r = 0; r < a.schema().NumRelations(); ++r) {
    if (a.Facts(r).size() != b.Facts(r).size()) return false;
  }
  const auto pa = internal::ElementProfiles(a);
  const auto pb = internal::ElementProfiles(b);
  auto sorted_a = pa;
  auto sorted_b = pb;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  if (sorted_a != sorted_b) return false;
  std::vector<Element> mapping(a.DomainSize(), 0);
  std::vector<bool> used(a.DomainSize(), false);
  return internal::ExtendIsomorphism(a, b, pa, pb, mapping, used, 0);
}

/// |hom(from, to)| by checking all |dom(to)|^|dom(from)| assignments (an
/// odometer over the images).
inline BigInt CountHomsNaive(const Structure& from, const Structure& to) {
  const std::size_t n = from.DomainSize();
  const std::size_t m = to.DomainSize();
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  if (n == 0) return BigInt(1);
  if (m == 0) return BigInt(0);
  std::vector<Element> assignment(n, 0);
  BigInt count(0);
  for (;;) {
    bool ok = true;
    for (RelationId r = 0; r < from.schema().NumRelations() && ok; ++r) {
      for (const Tuple& t : from.Facts(r)) {
        Tuple image(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) image[i] = assignment[t[i]];
        if (!to.HasFact(r, image)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) count += BigInt(1);
    std::size_t i = 0;
    while (i < n && ++assignment[i] == m) {
      assignment[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return count;
}

/// |hom(from, to)| by one EnumerateHoms visit per homomorphism.
/// Exponential in the count.
inline BigInt CountHomsByEnumeration(const Structure& from,
                                     const Structure& to) {
  BigInt count(0);
  EnumerateHoms(from, to, [&count](const std::vector<Element>&) {
    count += BigInt(1);
    return true;
  });
  return count;
}

/// Number of injective homomorphisms: EnumerateHoms, keeping the visits
/// whose images are pairwise distinct.
inline BigInt CountInjectiveHoms(const Structure& from, const Structure& to) {
  if (from.DomainSize() > to.DomainSize()) return BigInt(0);
  BigInt count(0);
  std::vector<bool> used(to.DomainSize());
  EnumerateHoms(from, to, [&](const std::vector<Element>& image) {
    std::fill(used.begin(), used.end(), false);
    for (Element e : image) {
      if (used[e]) return true;
      used[e] = true;
    }
    count += BigInt(1);
    return true;
  });
  return count;
}

/// One round of reference color refinement: the sorted table of distinct
/// signatures with their class sizes.
using ColorRound =
    std::vector<std::pair<std::vector<std::uint32_t>, std::size_t>>;

/// Color refinement (1-WL) with exact signatures instead of hashes. An
/// element's signature is its color followed by the sorted list of its
/// incidences (length, relation, position, colors of the fact's
/// elements); its next color is the rank of its signature in the round's
/// table. Stops when a round adds no color.
struct ColorRefinement {
  std::vector<std::uint32_t> color_of_element;  ///< Stable colors.
  /// The table of every round. Equal for two structures iff refinement
  /// cannot tell them apart: equal tables give every rank the same
  /// meaning on both sides, round after round.
  std::vector<ColorRound> rounds;
};

inline ColorRefinement RefineColors(const Structure& s) {
  const std::size_t n = s.DomainSize();
  ColorRefinement result;
  result.color_of_element.assign(n, 0);
  std::size_t num_colors = n == 0 ? 0 : 1;
  for (;;) {
    std::vector<std::vector<std::vector<std::uint32_t>>> incidences(n);
    for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
      for (const Tuple& t : s.Facts(r)) {
        for (std::size_t pos = 0; pos < t.size(); ++pos) {
          std::vector<std::uint32_t> incidence = {
              static_cast<std::uint32_t>(t.size()), r,
              static_cast<std::uint32_t>(pos)};
          for (Element e : t) {
            incidence.push_back(result.color_of_element[e]);
          }
          incidences[t[pos]].push_back(std::move(incidence));
        }
      }
    }
    std::vector<std::vector<std::uint32_t>> signature(n);
    std::map<std::vector<std::uint32_t>, std::size_t> sizes;
    for (std::size_t e = 0; e < n; ++e) {
      std::sort(incidences[e].begin(), incidences[e].end());
      signature[e].push_back(result.color_of_element[e]);
      for (const auto& incidence : incidences[e]) {
        signature[e].insert(signature[e].end(), incidence.begin(),
                            incidence.end());
      }
      ++sizes[signature[e]];
    }
    ColorRound round(sizes.begin(), sizes.end());
    for (std::size_t e = 0; e < n; ++e) {
      const auto it = std::lower_bound(
          round.begin(), round.end(), signature[e],
          [](const auto& entry, const auto& sig) { return entry.first < sig; });
      result.color_of_element[e] =
          static_cast<std::uint32_t>(it - round.begin());
    }
    const bool stable = round.size() == num_colors;
    num_colors = round.size();
    result.rounds.push_back(std::move(round));
    if (stable) return result;
  }
}

/// True iff color refinement tells a from b apart: a sound, incomplete
/// non-isomorphism test.
inline bool ColorRefinementDistinguishes(const Structure& a,
                                         const Structure& b) {
  if (a.schema() != b.schema()) return true;
  return reference::RefineColors(a).rounds !=
         reference::RefineColors(b).rounds;
}

/// det(m) of a square matrix by cofactor expansion along the last row,
/// memoized over column subsets: minor[mask] is the determinant of rows
/// 0..|mask|-1 restricted to the columns in `mask`. O(n·2^n) Rational
/// products, so at most 20 rows.
inline Rational CofactorDeterminant(const Mat& m) {
  const std::size_t n = m.rows();
  std::vector<Rational> minor(std::size_t{1} << n);
  minor[0] = Rational(1);
  for (std::size_t mask = 1; mask < minor.size(); ++mask) {
    std::size_t row = 0;  // |mask| - 1: the row being expanded.
    for (std::size_t bits = mask; bits != 0; bits &= bits - 1) ++row;
    --row;
    Rational det;
    std::size_t greater = 0;  // Columns of `mask` above column c.
    for (std::size_t c = n; c-- > 0;) {
      if (!(mask & (std::size_t{1} << c))) continue;
      const Rational term =
          m.At(row, c) * minor[mask & ~(std::size_t{1} << c)];
      det = greater % 2 == 0 ? det + term : det - term;
      ++greater;
    }
    minor[mask] = det;
  }
  return minor.back();
}

}  // namespace reference
}  // namespace bagdet

#endif  // BAGDET_TESTS_REFERENCE_ORACLES_H_
