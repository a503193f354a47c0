// bagdet: good basis construction (Lemma 40, Steps 1–4).
//
// Given the basis queries W = {w_1..w_k}, builds a set S = {s_1..s_k} of
// basis *structures* (as symbolic terms) that is
//   decent: v(s) = 0 for every v ∈ V0 \ V and s ∈ S   (Definition 35), and
//   good:   the evaluation matrix M(i,j) = w_i(s_j) is nonsingular
//           (Definition 38),
// following the paper's four steps:
//   1. S(1): for each pair w ≠ w′ ∈ W, a structure distinguishing their
//      hom counts (effective Lemma 43 — see distinguisher.h);
//   2. s(2) = Σ_i T^i s(1)_i with T larger than every entry of M_{S(1)},
//      making the counts w ↦ hom(w, s(2)) pairwise distinct (radix
//      argument, Observation 45);
//   3. s(3)_j = (s(2))^(j-1), giving a Vandermonde evaluation matrix,
//      nonsingular by Lemma 46;
//   4. s(4)_j = s(3)_j × q, which scales row i by w_i(q) > 0 and makes the
//      set decent (v(s′ × q) = v(s′) · v(q) and v(q) = 0 off V).

#ifndef BAGDET_CORE_BASIS_H_
#define BAGDET_CORE_BASIS_H_

#include <optional>
#include <vector>

#include "core/determinacy.h"
#include "util/exec_context.h"

namespace bagdet {

/// A good set of basis structures with its evaluation matrix.
struct GoodBasis {
  std::vector<StructureExpr> structures;  ///< s_1..s_k (Step-4 terms).
  Mat evaluation;  ///< M(i,j) = |hom(w_i, s_j)| — integral, nonsingular.

  /// Intermediate artifacts, exposed for tests and experiment binaries.
  std::vector<Structure> step1;  ///< S(1).
  BigInt radix;                  ///< T of Step 2.
  StructureExpr step2;           ///< s(2).
};

/// Outcome of TryBuildGoodBasis: `basis` is engaged iff `status.ok()`.
/// The only non-ok status on well-formed input is kResourceExhausted with
/// kernel "distinguisher" — the Step-1 search ran out of bounds (see
/// DistinguisherOutcome::kBoundsExhausted); widening
/// DistinguisherOptions::max_subset_domain resolves it.
struct GoodBasisOutcome {
  std::optional<GoodBasis> basis;
  ExecStatus status;
};

/// Builds a good basis for the analyzed instance (Lemma 40), reporting
/// distinguisher-bound exhaustion as a typed status instead of an
/// exception. Still throws std::logic_error on internal invariant
/// violations (a singular evaluation matrix after a successful search —
/// impossible by construction), and std::invalid_argument when the
/// analysis has no hom cache (one that did not come from AnalyzeInstance).
GoodBasisOutcome TryBuildGoodBasis(const InstanceAnalysis& analysis,
                                   const DistinguisherOptions& options);

/// Builds a good basis for the analyzed instance (Lemma 40). Throws
/// std::logic_error if the construction fails to produce a nonsingular
/// matrix (impossible if the distinguisher search succeeded) and
/// std::runtime_error when the distinguisher search exhausts its bounds
/// (wrapper over TryBuildGoodBasis for callers that prefer throwing).
GoodBasis BuildGoodBasis(const InstanceAnalysis& analysis,
                         const DistinguisherOptions& options);

}  // namespace bagdet

#endif  // BAGDET_CORE_BASIS_H_
