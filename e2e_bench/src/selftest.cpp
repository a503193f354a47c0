// The benchmark's own test: the generator is deterministic, its ground
// truth agrees with the library, and the answer checker counts a wrong
// verdict, a corrupted witness and a corrupted counterexample as failed.
// Exit code 0 iff every check passes.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "generator.h"
#include "ops.h"
#include "spans.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

const e2e::Instance& Paper(const std::string& id,
                           const std::vector<e2e::Instance>& all) {
  for (const e2e::Instance& inst : all) {
    if (inst.id == id) return inst;
  }
  std::fprintf(stderr, "no paper instance %s\n", id.c_str());
  std::exit(1);
}

void GeneratorIsDeterministic() {
  for (e2e::Mix mix : {e2e::Mix::kDecide, e2e::Mix::kCertify, e2e::Mix::kServe}) {
    const auto a = e2e::GenerateInstances(mix, 7);
    const auto b = e2e::GenerateInstances(mix, 7);
    const auto c = e2e::GenerateInstances(mix, 8);
    Check(a.size() == b.size(), "same seed, same count");
    bool identical = a.size() == b.size();
    for (std::size_t i = 0; identical && i < a.size(); ++i) {
      identical = a[i].id == b[i].id && a[i].text == b[i].text &&
                  a[i].determined == b[i].determined;
    }
    Check(identical, "same seed gives a byte-identical set");
    Check(e2e::HashInstances(a) == e2e::HashInstances(b), "same seed, same hash");
    // Decide draws its texts from the seed, certify its databases and
    // serve its arrivals.
    if (mix == e2e::Mix::kDecide) {
      Check(e2e::HashInstances(a) != e2e::HashInstances(c),
            "another seed, another hash");
    } else if (mix == e2e::Mix::kCertify) {
      Check(e2e::HashInstances(a, e2e::Databases(a, 7)) ==
                e2e::HashInstances(a, e2e::Databases(b, 7)),
            "same seed, same databases");
      Check(e2e::HashInstances(a, e2e::Databases(a, 7)) !=
                e2e::HashInstances(c, e2e::Databases(c, 8)),
            "another seed, other databases");
    } else {
      auto arrivals = [&](std::uint64_t seed) {
        return e2e::HashArrivals(e2e::PoissonArrivals(a.size(), 500, 2, seed));
      };
      Check(arrivals(7) == arrivals(7), "same seed, same arrivals");
      Check(arrivals(7) != arrivals(8), "another seed, other arrivals");
    }
  }
}

void GroundTruthHolds() {
  for (e2e::Mix mix : {e2e::Mix::kDecide, e2e::Mix::kCertify, e2e::Mix::kServe}) {
    for (const e2e::Instance& inst : e2e::GenerateInstances(mix, 3)) {
      e2e::OpInput in;
      in.instance = &inst;
      const e2e::OpResult r = e2e::RunOp(in);
      Check(r.failure.empty(), inst.id + ": " + r.failure);
      if (r.result.has_value()) {
        Check(r.result->analysis.basis_queries.size() == inst.k,
              inst.id + ": |W| as constructed");
        Check(r.result->analysis.relevant_views.size() == inst.relevant,
              inst.id + ": |V| as constructed");
        Check(r.result->analysis.views.size() == inst.views,
              inst.id + ": |V0| as constructed");
      }
    }
  }
}

void CheckerCountsCorruptionAsFailed() {
  const std::vector<e2e::Instance> paper = e2e::PaperInstances();
  e2e::SplitMix rng(11);

  // Determined: a corrupted witness exponent must not answer q correctly.
  const e2e::Instance& ex32 = Paper("EX32", paper);
  const e2e::Parsed parsed = e2e::ParseInstance(ex32.text);
  const bagdet::Structure db =
      e2e::RandomDatabase(parsed.query.schema_ptr(), 40, rng);
  e2e::OpInput in;
  in.instance = &ex32;
  in.want_counterexample = true;
  in.db = &db;
  e2e::OpResult good = e2e::RunOp(in);
  Check(good.failure.empty(), "EX32 passes: " + good.failure);
  bagdet::DeterminacyResult bad = *good.result;
  bad.witness->exponents[0] += bagdet::Rational(1);
  bool rejected = true;
  try {
    rejected = e2e::CheckResult(in, bad, nullptr, 0).has_value();
  } catch (const std::exception&) {
    // RunOp turns a throwing check into a failure as well.
  }
  Check(rejected, "a corrupted witness is counted as failed");
  bad = *good.result;
  bad.determined = false;
  bad.witness.reset();
  Check(e2e::CheckResult(in, bad, nullptr, 0).has_value(),
        "a wrong verdict is counted as failed");

  // NOT determined: D' = D is no counterexample.
  const e2e::Instance& ex2 = Paper("EX2", paper);
  in = e2e::OpInput();
  in.instance = &ex2;
  in.want_counterexample = true;
  good = e2e::RunOp(in);
  Check(good.failure.empty(), "EX2 passes: " + good.failure);
  bad = *good.result;
  bad.counterexample->d_prime = bad.counterexample->d;
  Check(e2e::CheckResult(in, bad, nullptr, 0).has_value(),
        "a corrupted counterexample is counted as failed");
  bad = *good.result;
  bad.counterexample.reset();
  Check(e2e::CheckResult(in, bad, nullptr, 0).has_value(),
        "a missing counterexample is counted as failed");
}

void TracedOpMatchesUntraced() {
  const std::vector<e2e::Instance> paper = e2e::PaperInstances();
  for (const e2e::Instance& inst : paper) {
    e2e::OpInput in;
    in.instance = &inst;
    in.want_counterexample = true;
    const e2e::OpResult plain = e2e::RunOp(in);
    e2e::SpanRecorder rec;
    e2e::LinalgRow row;
    e2e::TraceCounts counts;
    const e2e::OpResult traced = e2e::RunTracedOp(in, rec, 0, &row, &counts);
    Check(plain.failure.empty() && traced.failure.empty(),
          inst.id + " traced: " + traced.failure);
    Check(e2e::SameResult(*plain.result, *traced.result, true),
          inst.id + ": traced result equals the untraced one");
    Check(counts.containment_calls == inst.views, inst.id + ": containment calls");
    Check(row.span_rows == inst.k, inst.id + ": span rows = |W|");
    // Self times of the op's non-shadow spans add up to its duration.
    std::int64_t op_ns = 0, self_ns = 0;
    for (const auto& [name, t] : rec.Totals()) {
      if (name == "op") op_ns = t.total_ns;
      if (name != "shadow" && t.self_ns > 0) self_ns += t.self_ns;
    }
    Check(op_ns > 0 && self_ns == op_ns, inst.id + ": self times cover the op");
  }
}

}  // namespace

int main() {
  GeneratorIsDeterministic();
  GroundTruthHolds();
  CheckerCountsCorruptionAsFailed();
  TracedOpMatchesUntraced();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
