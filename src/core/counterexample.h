// bagdet: counterexample synthesis (Lemmas 41, 55–57).
//
// Given q⃗ ∉ span{v⃗ : v ∈ V} and a good basis S, produces structures
// D, D′ ∈ span_ℕ(S) with equal view answers and different q-answers:
//   z  — an integer vector orthogonal to every v⃗ but not to q⃗ (Fact 5);
//   p  = M·𝟙, a rational point in the interior of the cone 𝒞 = M(R^k_{≥0})
//        (Corollary 8; interior because M is nonsingular and 𝟙 > 0);
//   t  — a rational ≠ 1 close enough to 1 that p′ = t^z ∘ p stays in 𝒞
//        (Lemma 57, found by halving t−1: t = (2^j+1)/2^j, j = 1, 2, …);
//   c′ — a denominator-clearing factor (Lemma 55), giving natural
//        coordinate vectors c′·M⁻¹p = c′·𝟙 and c′·M⁻¹p′.
// Then every v ∈ V satisfies v(D) = v(D′) because ⟨z, v⃗⟩ = 0 makes the
// answers differ by the factor t^⟨z,v⃗⟩ = 1, while q picks up t^⟨z,q⃗⟩ ≠ 1
// (Observation 49).
//
// The Lemma 57 walk runs in integers. Each step needs only the signs of
// M⁻¹p′, so with a = 2^j+1, b = 2^j, P the common denominator of p,
// zmax = max(0, max z) and zneg = max(0, −min z) it forms
//   s_i = P·p_i · a^(z_i + zneg) · b^(zmax − z_i) = S_j · p′_i,
//   S_j = P · a^zneg · b^zmax > 0,
// and tests the signs of N·s, where N = L·M⁻¹ is the cone's integer scaled
// inverse (L > 0, SimplicialCone::ScaledCoordinates). No step normalizes a
// fraction; α′ = M⁻¹p′ = N·s / (L·S_j) is normalized once per coordinate at
// the accepted j. That is the same j, t and α′ the rational walk finds, so
// the certificate is unchanged. The walk checkpoints "core.synthesize" once
// per step, so a governed caller can stop it.

#ifndef BAGDET_CORE_COUNTEREXAMPLE_H_
#define BAGDET_CORE_COUNTEREXAMPLE_H_

#include "core/basis.h"
#include "core/determinacy.h"

namespace bagdet {

/// Synthesizes the counterexample. Preconditions: the analysis's query
/// vector is outside the span of the view vectors, and `basis` is good.
/// Throws std::logic_error when preconditions do not hold.
BagCounterexample SynthesizeCounterexample(const InstanceAnalysis& analysis,
                                           const GoodBasis& basis);

}  // namespace bagdet

#endif  // BAGDET_CORE_COUNTEREXAMPLE_H_
