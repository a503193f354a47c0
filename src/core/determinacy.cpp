#include "core/determinacy.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/basis.h"
#include "core/counterexample.h"
#include "hom/hom.h"
#include "hom/symbolic.h"
#include "linalg/gauss.h"

namespace bagdet {

namespace {

void CheckQueryUsable(const ConjunctiveQuery& query, const Schema& schema) {
  if (!query.IsBoolean()) {
    throw std::invalid_argument("AnalyzeInstance: query '" + query.name() +
                                "' is not boolean");
  }
  if (query.schema() != schema) {
    throw std::invalid_argument("AnalyzeInstance: query '" + query.name() +
                                "' uses a different schema");
  }
  query.ForEachAtom([&](const AtomView& atom) {
    if (atom.arity == 0) {
      throw std::invalid_argument(
          "AnalyzeInstance: query '" + query.name() + "' uses nullary atom " +
          query.schema().Name(atom.relation) +
          "(); the Theorem-3 procedure requires atoms of arity >= 1 "
          "(see README.md, \"Scope and design choices\")");
    }
  });
}

/// A cleared-denominator exponent as sign + checked uint64 magnitude.
struct SignedExponent {
  bool negative = false;
  std::uint64_t magnitude = 0;
};

/// Range-checks a BigInt exponent before it is cast for BigInt::Pow. A
/// pathological common denominator (or exponent scale) must fail loudly
/// here instead of wrapping through an unchecked uint64 cast.
SignedExponent CheckedExponent(const BigInt& value, const char* context) {
  if (!value.FitsInt64()) {
    throw std::invalid_argument(
        std::string(context) + ": exponent " + value.ToString() +
        " does not fit in a signed 64-bit integer (pathological witness "
        "denominators are not supported)");
  }
  std::int64_t e = value.ToInt64();
  if (e >= 0) return {false, static_cast<std::uint64_t>(e)};
  // |INT64_MIN| overflows int64, so bump through e + 1.
  return {true, static_cast<std::uint64_t>(-(e + 1)) + 1};
}

/// The common denominator c is used as a power and as a root index: it must
/// be strictly positive and fit in uint64 via int64.
std::uint64_t CheckedCommonDenominator(const BigInt& value,
                                       const char* context) {
  SignedExponent c = CheckedExponent(value, context);
  if (c.negative || c.magnitude == 0) {
    throw std::invalid_argument(std::string(context) +
                                ": common denominator " + value.ToString() +
                                " is not strictly positive");
  }
  return c.magnitude;
}

}  // namespace

InstanceAnalysis AnalyzeInstance(std::vector<ConjunctiveQuery> views,
                                 ConjunctiveQuery query,
                                 std::shared_ptr<HomCache> shared_cache) {
  InstanceAnalysis analysis;
  const Schema& schema = query.schema();
  CheckQueryUsable(query, schema);
  for (const ConjunctiveQuery& view : views) CheckQueryUsable(view, schema);
  analysis.views = std::move(views);
  analysis.query = std::move(query);
  // Persistent serving mode interns into the caller's fleet-wide pool and
  // memoizes counts in its cache. Downstream content is identical to the
  // private-pool path (only the ref values differ), so verdicts and
  // certificates cannot depend on what other requests populated.
  analysis.hom_cache = shared_cache != nullptr
                           ? std::move(shared_cache)
                           : std::make_shared<HomCache>();

  // Definition 25: V = { v : q ⊆set v }, i.e. hom(v, q) ≠ ∅.
  for (std::size_t i = 0; i < analysis.views.size(); ++i) {
    if (IsContainedSetSemantics(analysis.query, analysis.views[i])) {
      analysis.relevant_views.push_back(i);
    }
  }

  // Definitions 27 and 29: W = components of Σ_{v ∈ V ∪ {q}} v up to
  // isomorphism, and each body's multiplicity vector over W. Each body's
  // components are interned once, here, on the thread that owns the
  // analysis; a component is known iff its pool ref already has a basis
  // index. Views that failed the containment test above never pay for a
  // canonical form.
  HomCache& cache = *analysis.hom_cache;
  std::vector<std::size_t> index_of_ref;  // ref → basis index (dense refs).
  constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  auto basis_indices = [&](const Structure& frozen) {
    std::vector<std::size_t> indices;
    for (StructureRef ref : cache.ComponentRefs(frozen)) {
      if (index_of_ref.size() <= ref) index_of_ref.resize(ref + 1, kNoIndex);
      if (index_of_ref[ref] == kNoIndex) {
        index_of_ref[ref] = analysis.basis_queries.size();
        analysis.basis_queries.push_back(cache.pool().At(ref));
        analysis.basis_refs.push_back(ref);
      }
      indices.push_back(index_of_ref[ref]);
    }
    return indices;
  };
  const std::vector<std::size_t> query_indices =
      basis_indices(analysis.query.FrozenBody());
  std::vector<std::vector<std::size_t>> view_indices;
  for (std::size_t i : analysis.relevant_views) {
    view_indices.push_back(basis_indices(analysis.views[i].FrozenBody()));
  }
  // The vectors' dimension |W| is known only once every body is interned.
  auto vectorize = [&](const std::vector<std::size_t>& indices) {
    Vec v(analysis.basis_queries.size());
    for (std::size_t index : indices) v[index] += Rational(1);
    return v;
  };
  analysis.query_vector = vectorize(query_indices);
  for (const std::vector<std::size_t>& indices : view_indices) {
    analysis.view_vectors.push_back(vectorize(indices));
  }
  // The analysis is frozen from here on (see determinacy.h): containment
  // decomposed every view body, and interning canonicalized q and the
  // relevant views. Views that failed containment keep a cold canonical
  // form, which VerifyCounterexample fills only on private copies.
  return analysis;
}

DeterminacyResult DecideBagDeterminacy(std::vector<ConjunctiveQuery> views,
                                       ConjunctiveQuery query,
                                       const DeterminacyOptions& options) {
  DeterminacyResult result;
  result.analysis = AnalyzeInstance(std::move(views), std::move(query),
                                    options.shared_hom_cache);

  // Main Lemma 31: V0 ⟶bag q ⇔ q⃗ ∈ span{v⃗ : v ∈ V}.
  SpanMembership span = TestSpanMembership(result.analysis.view_vectors,
                                           result.analysis.query_vector);
  result.determined = span.in_span;
  if (span.in_span) {
    DeterminacyWitness witness;
    witness.view_indices = result.analysis.relevant_views;
    witness.exponents = span.coefficients;
    result.witness = std::move(witness);
    return result;
  }
  if (options.want_counterexample) {
    // Typed outcome instead of an exception: a distinguisher search that
    // exhausts its bounds leaves the (valid) NOT-determined verdict in
    // place with exec_status recording why the certificate is missing.
    GoodBasisOutcome basis = TryBuildGoodBasis(result.analysis,
                                               options.distinguisher);
    if (basis.basis.has_value()) {
      result.counterexample =
          SynthesizeCounterexample(result.analysis, *basis.basis);
    } else {
      result.exec_status = basis.status;
    }
  }
  return result;
}

GovernedDecision DecideBagDeterminacyGoverned(
    std::vector<ConjunctiveQuery> views, ConjunctiveQuery query,
    const DeterminacyOptions& options, ExecContext& exec) {
  GovernedDecision out;
  std::optional<DeterminacyResult> result =
      RunGoverned(exec, &out.status, [&] {
        return DecideBagDeterminacy(std::move(views), std::move(query),
                                    options);
      });
  if (result.has_value()) out.result = std::move(*result);
  return out;
}

bool CheckWitnessOnStructure(const InstanceAnalysis& analysis,
                             const DeterminacyWitness& witness,
                             const Structure& data) {
  // Route every count through the pipeline's memoized counter (repeated
  // checks against the same data, or data sharing components, then cost
  // one count per isomorphism class).
  HomCache* cache = analysis.hom_cache.get();
  if (cache == nullptr) {
    throw std::invalid_argument(
        "CheckWitnessOnStructure: analysis has no hom cache (build it with "
        "AnalyzeInstance)");
  }
  auto count_on_data = [&](const ConjunctiveQuery& cq) {
    // Interning reads the canonical form, which is cold for a view that
    // failed containment: count a private copy (see VerifyCounterexample).
    const Structure body = cq.FrozenBody();
    return cache->Count(body, data);
  };
  BigInt q_count = count_on_data(analysis.query);
  std::vector<BigInt> view_counts;
  for (std::size_t index : witness.view_indices) {
    view_counts.push_back(count_on_data(analysis.views[index]));
  }
  for (const BigInt& count : view_counts) {
    // Lemma 31 (⇐), Case 1 / Observation 26: a vanishing relevant view
    // forces q(D) = 0.
    if (count.IsZero()) return q_count.IsZero();
  }
  // Case 2: q(D)^c · Π_{α_j < 0} v_j(D)^{c·|α_j|} = Π_{α_j > 0} v_j(D)^{c·α_j}
  // where c clears the denominators of the rational exponents α.
  BigInt c = witness.exponents.CommonDenominator();
  Rational c_rat{c};
  BigInt lhs = BigInt::Pow(
      q_count, CheckedCommonDenominator(c, "CheckWitnessOnStructure"));
  BigInt rhs(1);
  for (std::size_t j = 0; j < view_counts.size(); ++j) {
    Rational scaled = witness.exponents[j] * c_rat;
    SignedExponent e =
        CheckedExponent(scaled.numerator(), "CheckWitnessOnStructure");
    if (!e.negative) {
      rhs *= BigInt::Pow(view_counts[j], e.magnitude);
    } else {
      lhs *= BigInt::Pow(view_counts[j], e.magnitude);
    }
  }
  return lhs == rhs;
}

BigInt AnswerFromViewCounts(const DeterminacyWitness& witness,
                            const std::vector<BigInt>& counts) {
  if (counts.size() != witness.view_indices.size()) {
    throw std::invalid_argument("AnswerFromViewCounts: wrong count arity");
  }
  for (const BigInt& count : counts) {
    if (count.IsNegative()) {
      throw std::invalid_argument("AnswerFromViewCounts: negative count");
    }
    if (count.IsZero()) return BigInt(0);  // Observation 26.
  }
  // q(D)^c = Π_{α_j > 0} v_j^{c·α_j} / Π_{α_j < 0} v_j^{c·|α_j|} with c
  // clearing denominators; extract the exact c-th root at the end.
  BigInt c = witness.exponents.CommonDenominator();
  const std::uint64_t c_exp =
      CheckedCommonDenominator(c, "AnswerFromViewCounts");
  Rational c_rat{c};
  BigInt numerator(1);
  BigInt denominator(1);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    Rational scaled = witness.exponents[j] * c_rat;
    SignedExponent e =
        CheckedExponent(scaled.numerator(), "AnswerFromViewCounts");
    if (!e.negative) {
      numerator *= BigInt::Pow(counts[j], e.magnitude);
    } else {
      denominator *= BigInt::Pow(counts[j], e.magnitude);
    }
  }
  BigInt quotient, remainder;
  BigInt::DivMod(numerator, denominator, &quotient, &remainder);
  if (!remainder.IsZero()) {
    throw std::invalid_argument(
        "AnswerFromViewCounts: counts inconsistent with the witness "
        "(non-integral power product)");
  }
  BigInt::RootResult root = BigInt::KthRoot(quotient, c_exp);
  if (!root.exact) {
    throw std::invalid_argument(
        "AnswerFromViewCounts: counts inconsistent with the witness "
        "(power product is not a perfect power)");
  }
  return root.root;
}

std::optional<std::string> VerifyCounterexample(
    const InstanceAnalysis& analysis,
    const BagCounterexample& counterexample) {
  HomCache* cache = analysis.hom_cache.get();
  // d and d′ share their s_j, and the bodies share component classes: one
  // memo for every count below evaluates each (class, node) pair once.
  // Each count is still rebuilt from leaf counts by Lemma 4; nothing is
  // read back from the evaluation matrix.
  SymbolicMemo memo;
  for (std::size_t i = 0; i < analysis.views.size(); ++i) {
    const ConjunctiveQuery& view = analysis.views[i];
    // A view that failed containment was never canonicalized, and the
    // analysis may be shared across threads: count a private copy, which
    // shares the warm caches and fills a cold canonical form for itself.
    const Structure body = view.FrozenBody();
    BigInt on_d = CountHomsSymbolicAny(body, counterexample.d, cache, &memo);
    BigInt on_d_prime =
        CountHomsSymbolicAny(body, counterexample.d_prime, cache, &memo);
    if (on_d != on_d_prime) {
      return "view '" + view.name() + "' (index " + std::to_string(i) +
             ") differs: " + on_d.ToString() + " vs " + on_d_prime.ToString();
    }
  }
  BigInt q_on_d = CountHomsSymbolicAny(analysis.query.FrozenBody(),
                                       counterexample.d, cache, &memo);
  BigInt q_on_d_prime = CountHomsSymbolicAny(
      analysis.query.FrozenBody(), counterexample.d_prime, cache, &memo);
  if (q_on_d == q_on_d_prime) {
    return "query agrees on both structures (" + q_on_d.ToString() +
           "); not a counterexample";
  }
  return std::nullopt;
}

std::string DeterminacyResult::Summary() const {
  std::ostringstream os;
  os << "instance: q = " << analysis.query.ToString() << "; |V0| = "
     << analysis.views.size() << ", |V| = " << analysis.relevant_views.size()
     << ", k = |W| = " << analysis.basis_queries.size() << "\n";
  if (determined) {
    os << "V0 -->bag q: DETERMINED. Witness exponents (Lemma 31): q(D) = ";
    if (witness->view_indices.empty()) {
      os << "1";
    } else {
      for (std::size_t j = 0; j < witness->view_indices.size(); ++j) {
        if (j != 0) os << " * ";
        os << analysis.views[witness->view_indices[j]].name() << "(D)^("
           << witness->exponents[j] << ")";
      }
    }
    os << " when all listed views are positive; otherwise q(D) = 0.";
  } else {
    os << "V0 -/->bag q: NOT determined.";
    if (counterexample.has_value()) {
      os << " Counterexample over basis S of size "
         << counterexample->basis_structures.size()
         << ": D has coordinates " << counterexample->coeffs_d.ToString()
         << ", D' has coordinates "
         << counterexample->coeffs_d_prime.ToString()
         << ", perturbation t = " << counterexample->t
         << ", |dom(D)| = " << counterexample->d.DomainSize().ToString()
         << ", |dom(D')| = " << counterexample->d_prime.DomainSize().ToString()
         << ".";
    } else if (!exec_status.ok()) {
      os << " Counterexample unavailable: " << exec_status.ToString() << ".";
    }
  }
  return os.str();
}

}  // namespace bagdet
