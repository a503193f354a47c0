#include "ops.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/basis.h"
#include "core/counterexample.h"
#include "core/distinguisher.h"
#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "query/parser.h"
#include "util/limb_kernels.h"

namespace e2e {

using bagdet::BigInt;
using bagdet::DeterminacyResult;

namespace {

std::size_t Bits(const bagdet::Rational& r) {
  return std::max(r.numerator().BitLength(), r.denominator().BitLength());
}

std::size_t MaxBits(const bagdet::Vec& v) {
  std::size_t bits = 0;
  for (std::size_t i = 0; i < v.size(); ++i) bits = std::max(bits, Bits(v[i]));
  return bits;
}

Parsed Inputs(const OpInput& in, SpanRecorder* rec, std::uint32_t op) {
  if (in.prebuilt != nullptr) {
    // The decision consumes its inputs, as the service's copy of a request.
    ScopedSpan span(rec, "request.copy", op);
    return *in.prebuilt;
  }
  ScopedSpan span(rec, "query.parse", op);
  return ParseInstance(in.instance->text);
}

bagdet::DeterminacyOptions Options(const OpInput& in) {
  bagdet::DeterminacyOptions options;
  options.want_counterexample = in.want_counterexample;
  options.shared_hom_cache = in.shared_cache;
  return options;
}

/// DecideBagDeterminacy's stages, one span each.
DeterminacyResult DecideStaged(const OpInput& in, SpanRecorder* rec,
                               std::uint32_t op) {
  Parsed parsed = Inputs(in, rec, op);
  DeterminacyResult result;
  {
    ScopedSpan span(rec, "core.analyze", op);
    result.analysis = bagdet::AnalyzeInstance(
        std::move(parsed.views), std::move(parsed.query), in.shared_cache);
  }
  bagdet::SpanMembership membership;
  {
    ScopedSpan span(rec, "linalg.span", op);
    membership = bagdet::TestSpanMembership(result.analysis.view_vectors,
                                            result.analysis.query_vector);
  }
  result.determined = membership.in_span;
  if (membership.in_span) {
    bagdet::DeterminacyWitness witness;
    witness.view_indices = result.analysis.relevant_views;
    witness.exponents = std::move(membership.coefficients);
    result.witness = std::move(witness);
    return result;
  }
  if (in.want_counterexample) {
    bagdet::GoodBasisOutcome basis;
    {
      ScopedSpan span(rec, "core.basis", op);
      basis = bagdet::TryBuildGoodBasis(result.analysis,
                                        bagdet::DistinguisherOptions());
    }
    if (basis.basis.has_value()) {
      ScopedSpan span(rec, "core.synthesize", op);
      result.counterexample =
          bagdet::SynthesizeCounterexample(result.analysis, *basis.basis);
    } else {
      result.exec_status = basis.status;
    }
  }
  return result;
}

/// Replays the inner public calls of AnalyzeInstance, TryBuildGoodBasis and
/// SynthesizeCounterexample on fresh copies of the op's inputs.
void ShadowReplay(const OpInput& in, const DeterminacyResult& r,
                  SpanRecorder& rec, std::uint32_t op, TraceCounts* counts) {
  ScopedSpan root(&rec, "shadow", op, /*shadow=*/true);
  const Parsed parsed = in.prebuilt != nullptr
                            ? *in.prebuilt
                            : ParseInstance(in.instance->text);
  std::vector<std::size_t> relevant;
  {
    ScopedSpan span(&rec, "hom.containment", op, true);
    for (std::size_t i = 0; i < parsed.views.size(); ++i) {
      if (bagdet::IsContainedSetSemantics(parsed.query, parsed.views[i])) {
        relevant.push_back(i);
      }
    }
  }
  counts->containment_calls += parsed.views.size();
  counts->containment_relevant += relevant.size();

  // Serving interns into the warm fleet-wide pool; everything else into a
  // fresh one, as a private decision does.
  std::shared_ptr<bagdet::HomCache> cache =
      in.shared_cache != nullptr ? in.shared_cache
                                 : std::make_shared<bagdet::HomCache>();
  std::vector<bagdet::StructureRef> basis_refs;
  {
    ScopedSpan span(&rec, "structs.intern", op, true);
    auto add = [&](const bagdet::ConjunctiveQuery& cq) {
      for (bagdet::StructureRef ref : cache->ComponentRefs(cq.FrozenBody())) {
        ++counts->components;
        if (std::find(basis_refs.begin(), basis_refs.end(), ref) ==
            basis_refs.end()) {
          basis_refs.push_back(ref);
        }
      }
    };
    add(parsed.query);
    for (std::size_t i : relevant) add(parsed.views[i]);
  }
  counts->classes += basis_refs.size();

  if (!r.counterexample.has_value()) return;
  {
    ScopedSpan span(&rec, "core.distinguisher", op, true);
    bagdet::DistinguisherOptions options;
    options.hom_cache = cache.get();
    for (std::size_t i = 0; i < basis_refs.size(); ++i) {
      for (std::size_t j = i + 1; j < basis_refs.size(); ++j) {
        bagdet::SearchDistinguisher(cache->pool().At(basis_refs[i]),
                                    cache->pool().At(basis_refs[j]), options);
        ++counts->distinguisher_pairs;
      }
    }
  }
  const bagdet::Mat& evaluation = r.counterexample->evaluation_matrix;
  {
    ScopedSpan span(&rec, "linalg.eval_rank", op, true);
    bagdet::IsNonsingular(evaluation);
  }
  {
    ScopedSpan span(&rec, "linalg.orthogonal", op, true);
    bagdet::OrthogonalWitness(r.analysis.view_vectors,
                              r.analysis.query_vector);
  }
  {
    ScopedSpan span(&rec, "linalg.cone", op, true);
    bagdet::SimplicialCone cone(evaluation);
  }
}

LinalgRow Ledger(const DeterminacyResult& r) {
  LinalgRow row;
  row.span_rows = r.analysis.query_vector.size();
  row.span_cols = r.analysis.view_vectors.size();
  row.span_bits = MaxBits(r.analysis.query_vector);
  for (const bagdet::Vec& v : r.analysis.view_vectors) {
    row.span_bits = std::max(row.span_bits, MaxBits(v));
  }
  if (r.counterexample.has_value()) {
    const bagdet::Mat& m = r.counterexample->evaluation_matrix;
    row.eval_dim = m.rows();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      row.eval_bits = std::max(row.eval_bits, MaxBits(m.Row(i)));
    }
  }
  return row;
}

}  // namespace

Parsed ParseInstance(const std::string& text) {
  bagdet::QueryParser parser;
  std::vector<bagdet::ConjunctiveQuery> rules = parser.ParseProgram(text);
  if (rules.size() < 2) {
    throw std::invalid_argument("instance needs at least one view and q");
  }
  Parsed parsed;
  parsed.query = std::move(rules.back());
  rules.pop_back();
  parsed.views = std::move(rules);
  return parsed;
}

std::optional<std::string> CheckResult(const OpInput& in,
                                       const DeterminacyResult& r,
                                       SpanRecorder* rec, std::uint32_t op) {
  if (r.determined != in.instance->determined) return "wrong verdict";
  if (r.determined) {
    if (!r.witness.has_value()) return "determined without a witness";
    if (in.db == nullptr) return std::nullopt;
    const bagdet::InstanceAnalysis& a = r.analysis;
    std::vector<BigInt> counts;
    {
      ScopedSpan span(rec, "hom.count", op);
      for (std::size_t index : r.witness->view_indices) {
        counts.push_back(a.views[index].CountHomomorphisms(*in.db));
      }
    }
    BigInt answer;
    {
      ScopedSpan span(rec, "core.answer", op);
      answer = bagdet::AnswerFromViewCounts(*r.witness, counts);
    }
    BigInt direct;
    {
      ScopedSpan span(rec, "hom.count", op);
      direct = a.query.CountHomomorphisms(*in.db);
    }
    if (answer != direct) {
      return "answer from view counts " + answer.ToString() +
             " != direct count " + direct.ToString();
    }
    return std::nullopt;
  }
  if (!in.want_counterexample) return std::nullopt;
  if (!r.counterexample.has_value()) {
    return "counterexample missing: " + r.exec_status.ToString();
  }
  ScopedSpan span(rec, "core.verify", op);
  std::optional<std::string> bad =
      bagdet::VerifyCounterexample(r.analysis, *r.counterexample);
  if (bad.has_value()) return "counterexample rejected: " + *bad;
  return std::nullopt;
}

OpResult RunOp(const OpInput& in) {
  OpResult out;
  try {
    Parsed parsed = Inputs(in, nullptr, 0);
    out.result = bagdet::DecideBagDeterminacy(
        std::move(parsed.views), std::move(parsed.query), Options(in));
    if (auto bad = CheckResult(in, *out.result, nullptr, 0)) out.failure = *bad;
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
  }
  return out;
}

OpResult RunTracedOp(const OpInput& in, SpanRecorder& rec, std::uint32_t op,
                     LinalgRow* ledger, TraceCounts* counts) {
  OpResult out;
  try {
    const std::uint64_t allocs = bagdet::limb::HeapAllocCount();
    {
      ScopedSpan root(&rec, "op", op);
      out.result = DecideStaged(in, &rec, op);
      if (auto bad = CheckResult(in, *out.result, &rec, op)) {
        out.failure = *bad;
      }
    }
    counts->heap_allocs += bagdet::limb::HeapAllocCount() - allocs;
    *ledger = Ledger(*out.result);
    ShadowReplay(in, *out.result, rec, op, counts);
  } catch (const std::exception& e) {
    out.failure = std::string("exception: ") + e.what();
  }
  return out;
}

bool SameResult(const DeterminacyResult& a, const DeterminacyResult& b,
                bool with_counterexample) {
  if (a.determined != b.determined ||
      a.analysis.relevant_views != b.analysis.relevant_views ||
      a.analysis.basis_queries.size() != b.analysis.basis_queries.size() ||
      a.witness.has_value() != b.witness.has_value()) {
    return false;
  }
  if (a.witness.has_value() &&
      (a.witness->view_indices != b.witness->view_indices ||
       a.witness->exponents != b.witness->exponents)) {
    return false;
  }
  if (!with_counterexample) return true;
  if (a.counterexample.has_value() != b.counterexample.has_value()) {
    return false;
  }
  return !a.counterexample.has_value() ||
         SameCounterexample(*a.counterexample, *b.counterexample);
}

bool SameCounterexample(const bagdet::BagCounterexample& x,
                        const bagdet::BagCounterexample& y) {
  return x.coeffs_d == y.coeffs_d && x.coeffs_d_prime == y.coeffs_d_prime &&
         x.z == y.z && x.t == y.t && x.evaluation_matrix == y.evaluation_matrix;
}

}  // namespace e2e
