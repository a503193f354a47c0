// bagdet: homomorphism counting and existence.
//
// |hom(A, D)| is the central quantity of the paper: boolean CQ answers are
// hom counts (Section 2.1), the evaluation matrix of Definition 37 is a
// hom-count matrix, and set-semantics containment is hom existence. The
// engine decomposes A into connected components (Lemma 4(5)) and counts
// one component per isomorphism class by greedy-order variable
// elimination over the facts of D; existence and enumeration run a
// backtracking matcher.

#ifndef BAGDET_HOM_HOM_H_
#define BAGDET_HOM_HOM_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {

/// Number of homomorphisms from `from` to `to`. Exact (BigInt); note
/// |hom(∅, D)| = 1. Components of one class are counted once and the count
/// raised to their multiplicity; classes are read from `from`'s cached
/// canonical form when it has one (never computed here), otherwise only
/// equal components are grouped.
BigInt CountHoms(const Structure& from, const Structure& to);

/// True iff at least one homomorphism exists (early-exit search).
bool ExistsHom(const Structure& from, const Structure& to);

/// Enumerates homomorphisms, invoking `visit` with the image of every
/// domain element of `from` (indexed by element). Stops early when `visit`
/// returns false. Intended for answer-multiset construction (queries with
/// free variables). Returns false iff stopped early.
bool EnumerateHoms(const Structure& from, const Structure& to,
                   const std::function<bool(const std::vector<Element>&)>& visit);

}  // namespace bagdet

#endif  // BAGDET_HOM_HOM_H_
