// bagdet: bag-semantics determinacy of boolean conjunctive queries —
// the paper's main result (Theorem 3) as a decision procedure with
// certificates in both directions.
//
// Pipeline (Sections 4–7):
//   1. V  = { v ∈ V0 : q ⊆set v }                       (Definition 25)
//   2. W  = connected components of Σ_{v ∈ V∪{q}} v,
//           deduplicated up to isomorphism               (Definition 27)
//   3. vector representations v⃗, q⃗ over the basis W     (Definition 29)
//   4. V0 ⟶bag q  ⇔  q⃗ ∈ span_Q{ v⃗ : v ∈ V }            (Main Lemma 31)
//
// When determined, the span coefficients α certify it concretely:
//   q(D) = Π_j v_j(D)^α_j whenever all v_j(D) > 0, and q(D) = 0 otherwise
// (proof of Lemma 31 (⇐)). When not determined, an explicit pair of
// structures (D, D′) with equal view answers and different q-answers is
// synthesized per Sections 5–7 (as StructureExpr terms, since the good
// basis structures are astronomically large).

#ifndef BAGDET_CORE_DETERMINACY_H_
#define BAGDET_CORE_DETERMINACY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/distinguisher.h"
#include "hom/hom_cache.h"
#include "linalg/matrix.h"
#include "query/cq.h"
#include "structs/pool.h"
#include "structs/structure_expr.h"
#include "util/exec_context.h"

namespace bagdet {

/// Everything the decision procedure derives from an instance (V0, q).
struct InstanceAnalysis {
  std::vector<ConjunctiveQuery> views;  ///< V0, as given.
  ConjunctiveQuery query;               ///< q.

  /// Indices into `views` of V = { v ∈ V0 : q ⊆set v } (Definition 25).
  std::vector<std::size_t> relevant_views;

  /// W — the basis queries (Definition 27): pairwise non-isomorphic
  /// connected components of the frozen bodies of V ∪ {q}.
  std::vector<Structure> basis_queries;

  /// v⃗ for each member of `relevant_views` (Definition 29); dimension |W|.
  std::vector<Vec> view_vectors;

  /// q⃗.
  Vec query_vector;

  /// Canonical-form interning pool shared by the whole pipeline: every
  /// component of every frozen body is interned here, and `basis_queries[i]`
  /// is the representative of class `basis_refs[i]`.
  std::shared_ptr<StructurePool> pool;

  /// Memoized hom counter over `pool`, shared by BuildGoodBasis,
  /// FindDistinguisher and CheckWitnessOnStructure.
  std::shared_ptr<HomCache> hom_cache;

  /// Pool refs of `basis_queries`, index-aligned.
  std::vector<StructureRef> basis_refs;
};

/// Computes the analysis. Throws std::invalid_argument when q or a view is
/// not boolean, uses a nullary atom (the Theorem-3 machinery requires
/// components with nonempty domains; see README.md, "Scope and design
/// choices"), or schemas differ.
///
/// `shared_cache` (optional) supplies a persistent HomCache — and with it
/// the StructurePool it wraps — owned by a long-lived caller such as
/// DeterminacyService: components intern into the shared pool and counts
/// memoize fleet-wide, so overlapping view sets across requests hit warm
/// entries instead of recounting. Both are thread-safe, so concurrent
/// analyses may share one cache. The analysis content (basis order,
/// vectors, verdict downstream) is bit-identical to the private-pool path
/// regardless of what else the shared pool already holds — only the
/// numeric StructureRef values differ. Null keeps the per-call behavior:
/// a fresh pool + cache per analysis.
InstanceAnalysis AnalyzeInstance(std::vector<ConjunctiveQuery> views,
                                 ConjunctiveQuery query,
                                 std::shared_ptr<HomCache> shared_cache =
                                     nullptr);

/// Positive certificate: q(D) = Π_j views[view_indices[j]](D)^exponents[j]
/// whenever every listed view count is positive; otherwise q(D) = 0.
struct DeterminacyWitness {
  std::vector<std::size_t> view_indices;  ///< Indices into V0.
  Vec exponents;                          ///< Rational α (Lemma 31 (⇐)).
};

/// Negative certificate: structures D, D′ with v(D) = v(D′) for every
/// v ∈ V0 but q(D) ≠ q(D′) (conditions (A), (B), (B0) of Section 5).
struct BagCounterexample {
  StructureExpr d;        ///< D  = Σ_i coeffs_d[i] · basis[i].
  StructureExpr d_prime;  ///< D′ = Σ_i coeffs_d_prime[i] · basis[i].
  Vec coeffs_d;           ///< Natural coordinates of D in the basis S.
  Vec coeffs_d_prime;     ///< Natural coordinates of D′.
  std::vector<StructureExpr> basis_structures;  ///< S — good basis (L. 40).
  Mat evaluation_matrix;  ///< M(i,j) = w_i(s_j) (Definition 37).
  Vec z;                  ///< Integer orthogonal witness (Fact 5).
  Rational t;             ///< Perturbation factor of Lemma 56 (≠ 1).
};

struct DeterminacyOptions {
  /// Synthesize the counterexample when the answer is "not determined"
  /// (it can be exponentially larger than the decision itself).
  bool want_counterexample = true;
  DistinguisherOptions distinguisher;
  /// Persistent pool + count cache to run this decision against (see
  /// AnalyzeInstance). Null = private per-call pool and cache. Its
  /// budgets belong to its owner; counts are pure functions of the
  /// interned classes, so eviction pressure never changes a verdict.
  std::shared_ptr<HomCache> shared_hom_cache;
};

/// Outcome of the decision procedure.
struct DeterminacyResult {
  bool determined = false;
  std::optional<DeterminacyWitness> witness;          ///< Set iff determined.
  std::optional<BagCounterexample> counterexample;    ///< Set iff requested
                                                      ///< and not determined.
  InstanceAnalysis analysis;

  /// Execution record for the run. ok() in the common case. The only
  /// non-ok value the ungoverned entry point produces on well-formed input
  /// is kResourceExhausted in kernel "distinguisher": counterexample
  /// synthesis was requested, the verdict is NOT determined (the verdict
  /// itself is always valid), but the distinguisher search exhausted its
  /// bounds before a good basis existed — `counterexample` stays empty and
  /// no exception escapes. Widen
  /// DeterminacyOptions::distinguisher.max_subset_domain to recover the
  /// certificate.
  ExecStatus exec_status;

  /// Human-readable summary of the verdict and certificate.
  std::string Summary() const;
};

/// Decides whether V0 ⟶bag q (Theorem 3).
DeterminacyResult DecideBagDeterminacy(
    std::vector<ConjunctiveQuery> views, ConjunctiveQuery query,
    const DeterminacyOptions& options = DeterminacyOptions());

/// AnalyzeInstance under an execution context: the hom-count kernels,
/// canonical labeling searches and pool interning behind the analysis all
/// checkpoint against `exec`'s deadline, cancellation token, and memory
/// budget. `analysis` is engaged iff `status.ok()`; on a trip the status
/// carries the tripping kernel and the bytes/elapsed at trip time, and the
/// shared pool/caches of other requests are unaffected. Bit-identical to
/// AnalyzeInstance whenever no limit trips. Malformed input (non-boolean
/// query, schema mismatch, nullary atom) still throws
/// std::invalid_argument exactly like AnalyzeInstance.
struct GovernedAnalysis {
  ExecStatus status;
  std::optional<InstanceAnalysis> analysis;
};
GovernedAnalysis AnalyzeInstanceGoverned(std::vector<ConjunctiveQuery> views,
                                         ConjunctiveQuery query,
                                         ExecContext& exec);

/// DecideBagDeterminacy under an execution context — the whole pipeline
/// (analysis, span test, basis construction, counterexample synthesis)
/// runs governed. `result` is engaged iff `status.ok()`; when engaged it
/// is bit-identical to the ungoverned result (including its exec_status
/// field, which records in-budget declines such as distinguisher
/// exhaustion).
struct GovernedDecision {
  ExecStatus status;
  std::optional<DeterminacyResult> result;
};
GovernedDecision DecideBagDeterminacyGoverned(
    std::vector<ConjunctiveQuery> views, ConjunctiveQuery query,
    const DeterminacyOptions& options, ExecContext& exec);

/// Checks the witness formula on one concrete structure:
/// returns true iff q(D) matches Π v_j(D)^α_j (or 0 when some v_j(D) = 0).
/// Exact; rational exponents are handled by checking the cleared-denominator
/// power identity q(D)^c · Π_{α_j<0} v_j(D)^{c·|α_j|} = Π_{α_j>0} v_j(D)^{c·α_j}.
///
/// Counts route through the analysis's shared HomCache (as does
/// VerifyCounterexample): repeated checks are memoized. The cache and its
/// sharded pool are thread-safe, so concurrent checks on the *same*
/// analysis are supported — each thread just needs its own `data` object
/// (Structure's lazy positional index is per-object and unsynchronized).
/// Count entries are LRU-bounded by the cache's budgets; each distinct
/// small `data` (≤ HomCache::kMaxInternDomain elements) stays interned
/// for the analysis's lifetime, larger data bypasses the cache entirely.
bool CheckWitnessOnStructure(const InstanceAnalysis& analysis,
                             const DeterminacyWitness& witness,
                             const Structure& data);

/// Answers q from the view *counts alone* — the whole point of a positive
/// determinacy verdict. Given counts[i] = views[witness.view_indices[i]](D)
/// for an (unseen) database D, returns q(D):
///   * 0 when some relevant view count is 0 (Observation 26);
///   * otherwise the exact value of Π_j counts[j]^{α_j}, computed with
///     BigInt powers and exact root extraction for rational exponents.
/// Throws std::invalid_argument when the counts are inconsistent with the
/// witness (e.g. the power product is not a perfect power — impossible for
/// counts coming from a real database when the witness is valid).
BigInt AnswerFromViewCounts(const DeterminacyWitness& witness,
                            const std::vector<BigInt>& counts);

/// Exhaustively verifies a counterexample: every view of V0 agrees on
/// (D, D′) and q differs — all counts evaluated exactly (symbolically).
/// Returns a diagnostic message on failure, std::nullopt on success.
std::optional<std::string> VerifyCounterexample(
    const InstanceAnalysis& analysis, const BagCounterexample& counterexample);

}  // namespace bagdet

#endif  // BAGDET_CORE_DETERMINACY_H_
