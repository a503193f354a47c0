// bagdet: the Theorem-2 reduction (Appendix A) — from Hilbert's Tenth
// Problem to bag-determinacy of boolean UCQs.
//
// For an instance I = {m_1, ..., m_k} over unknowns x_0..x_{n-1}, the
// reduction emits a schema Σ = {H, C (nullary), X_0..X_{n-1} (unary)},
// the query q = H, and the views
//   V1   = H ∨ C,
//   V_xi = ∃y X_i(y)                       (one per unknown),
//   V_I  = Ψ_P ∨ Ψ_N, where Ψ_P repeats Φ_m ∧ H c(m) times for positive
//          monomials and Ψ_N repeats Φ_m ∧ C |c(m)| times for negative
//          ones, with Φ_m = ∃* Λ_i Λ_{j≤m(x_i)} X_i(y_ij)
// so that I has a solution over ℕ  ⇔  V does NOT bag-determine q
// (Lemma 63). Structures over Σ are summarized by (D_H, D_C, D_X0, ...).

#ifndef BAGDET_HILBERT_REDUCTION_H_
#define BAGDET_HILBERT_REDUCTION_H_

#include <memory>
#include <vector>

#include "hilbert/polynomial.h"
#include "query/cq.h"

namespace bagdet {

/// The emitted determinacy instance.
struct Theorem2Reduction {
  std::shared_ptr<Schema> schema;
  RelationId h_relation = 0;           ///< Nullary H.
  RelationId c_relation = 0;           ///< Nullary C.
  std::vector<RelationId> x_relations; ///< Unary X_i per unknown.

  UnionQuery query;                    ///< q = H.
  std::vector<UnionQuery> views;       ///< V1, V_x0.., V_I (in this order).

  /// Φ_m for each monomial (index-aligned with the instance), exposed so
  /// Lemma 59 (m_D = c(m) · Φ_m(D)) can be tested directly.
  std::vector<ConjunctiveQuery> phi;

  /// Ψ_P and Ψ_N (Lemmas 60, 61).
  UnionQuery psi_positive;
  UnionQuery psi_negative;

  /// Builds the structure with D_H = has_h, D_C = has_c, D_{X_i} =
  /// x_counts[i] (each X_i fact on its own fresh element).
  Structure MakeStructure(bool has_h, bool has_c,
                          const std::vector<std::uint64_t>& x_counts) const;

  /// Lemma 63 (⇐): the pair (D, D′) witnessing non-determinacy for a
  /// solution f of I: D_H = D′_C = 1, D_C = D′_H = 0, D_Xi = D′_Xi = f(x_i).
  std::pair<Structure, Structure> WitnessPair(
      const std::vector<std::uint64_t>& solution) const;

  /// V(D) for every view, in view order.
  std::vector<BigInt> EvaluateViews(const Structure& data) const;
};

/// 64-bit fingerprint of a view-count vector: each count reduced modulo a
/// fixed 62-bit prime (BigInt::Mod residue extraction) and hash-combined
/// in order. Equal vectors have equal fingerprints, so the quadratic
/// witness scan in SearchNonDeterminacy can compare fingerprints before any
/// exact BigInt comparison.
std::uint64_t CountVectorFingerprint(const std::vector<BigInt>& counts);

/// Runs the reduction on an instance.
Theorem2Reduction ReduceToDeterminacy(const DiophantineInstance& instance);

}  // namespace bagdet

#endif  // BAGDET_HILBERT_REDUCTION_H_
