// One benchmark op, untraced and traced, and the answer checker.
//
// The untraced op is what a user runs: parse (unless the input is a
// pre-built serving request), DecideBagDeterminacy, then use the
// certificate. The traced op makes the same public calls stage by stage,
// in DecideBagDeterminacy's order, with a span around each, so its result
// must equal the untraced one bit for bit (SameResult).
//
// Three public calls bundle two layers each. After the op's span closes,
// the traced run replays their inner public calls on fresh copies of the
// same inputs, under a separate root span flagged shadow:
//   AnalyzeInstance          -> IsContainedSetSemantics, HomCache::ComponentRefs
//   TryBuildGoodBasis        -> SearchDistinguisher, IsNonsingular
//   SynthesizeCounterexample -> OrthogonalWitness, SimplicialCone

#ifndef BAGDET_E2E_OPS_H_
#define BAGDET_E2E_OPS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/determinacy.h"
#include "generator.h"
#include "hom/hom_cache.h"
#include "query/cq.h"
#include "spans.h"

namespace e2e {

struct Parsed {
  std::vector<bagdet::ConjunctiveQuery> views;
  bagdet::ConjunctiveQuery query;
};

/// Parses a program whose last rule is the query. Throws
/// std::invalid_argument on malformed text or fewer than two rules.
Parsed ParseInstance(const std::string& text);

struct OpInput {
  const Instance* instance = nullptr;
  /// Serving inputs arrive pre-built; null means parse instance->text.
  const Parsed* prebuilt = nullptr;
  bool want_counterexample = false;
  /// Database the certify op answers a determined instance on; null skips
  /// the answer check.
  const bagdet::Structure* db = nullptr;
  /// Persistent cache to decide against (serving replay); null = private.
  std::shared_ptr<bagdet::HomCache> shared_cache;
};

/// The linalg ledger row of one op: the span-test coefficient matrix is
/// |W| x |V|, the evaluation matrix |W| x |W| (dim 0 when none was built).
struct LinalgRow {
  std::size_t span_rows = 0;
  std::size_t span_cols = 0;
  std::size_t span_bits = 0;
  std::size_t eval_dim = 0;
  std::size_t eval_bits = 0;
};

/// Counts the traced run takes where the work happens: the shadow replays'
/// calls, and the BigInt heap acquisitions of the op on the calling thread.
struct TraceCounts {
  std::uint64_t containment_calls = 0;
  std::uint64_t containment_relevant = 0;
  std::uint64_t components = 0;
  std::uint64_t classes = 0;
  std::uint64_t distinguisher_pairs = 0;
  std::uint64_t heap_allocs = 0;
};

struct OpResult {
  std::optional<bagdet::DeterminacyResult> result;
  /// Empty when the op passed every check; otherwise why it failed.
  std::string failure;
};

/// Runs one untraced op. Never throws: exceptions become failures.
OpResult RunOp(const OpInput& in);

/// Runs one traced op: stage spans under a root "op" span, then the shadow
/// replays under a root "shadow" span. Fills the ledger row and counts.
OpResult RunTracedOp(const OpInput& in, SpanRecorder& rec, std::uint32_t op,
                     LinalgRow* ledger, TraceCounts* counts);

/// Checks a decision against the instance's ground truth and uses its
/// certificate: a counterexample must pass VerifyCounterexample; a witness
/// must answer q on `in.db` from the view counts alone, equal to the direct
/// count. Returns the failure, or nullopt. Spans go to `rec` when set.
std::optional<std::string> CheckResult(const OpInput& in,
                                       const bagdet::DeterminacyResult& r,
                                       SpanRecorder* rec, std::uint32_t op);

/// True iff two counterexamples have the same coordinates, orthogonal
/// witness, perturbation and evaluation matrix.
bool SameCounterexample(const bagdet::BagCounterexample& x,
                        const bagdet::BagCounterexample& y);

/// True iff two results carry the same verdict, relevant views, witness
/// and (when `with_counterexample`) counterexample.
bool SameResult(const bagdet::DeterminacyResult& a,
                const bagdet::DeterminacyResult& b, bool with_counterexample);

}  // namespace e2e

#endif  // BAGDET_E2E_OPS_H_
