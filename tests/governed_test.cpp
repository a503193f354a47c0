// Governed execution and fault injection (util/exec_context.h,
// util/failpoint.h): deadlines, cooperative cancellation, memory budgets,
// and injected faults across the determinacy pipeline.
//
// The contract under test, end to end:
//   * a tripped limit surfaces as a typed ExecStatus (never an escaping
//     exception) naming the kernel that hit it;
//   * the unwind is clean — shared StructurePool/HomCache state stays
//     consistent and subsequent requests are unaffected;
//   * with no limits, governed runs are bit-identical to ungoverned ones;
//   * deadline overshoot is bounded by the checkpoint sampling interval,
//     not by the kernel's total runtime.
//
// Fault-injection cases need a -DBAGDET_FAILPOINTS=ON build and GTEST_SKIP
// otherwise. BAGDET_DIFF_ITERS scales the rerun-identical loops (nightly
// runs it at 10).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "blind_pair.h"
#include "core/basis.h"
#include "core/counterexample.h"
#include "core/determinacy.h"
#include "core/distinguisher.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "query/cq.h"
#include "structs/structure.h"
#include "util/bigint.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {
namespace {

int DiffIters() {
  const char* env = std::getenv("BAGDET_DIFF_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

/// Cycle with both edge directions — bipartite iff n is even.
Structure SymmetricCycle(const std::shared_ptr<Schema>& schema,
                         std::size_t n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    const Element j = static_cast<Element>((i + 1) % n);
    s.AddFact(0, {i, j});
    s.AddFact(0, {j, i});
  }
  return s;
}

/// Complete digraph with loops on n elements.
Structure FullDigraph(const std::shared_ptr<Schema>& schema, std::size_t n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    for (Element j = 0; j < n; ++j) s.AddFact(0, {i, j});
  }
  return s;
}

/// Adversarial instance: deciding view relevance runs
/// ExistsHom(C_odd_sym, C4_sym) — a no-instance whose backtracking proof
/// is exponential in the odd cycle's length (~2^n nodes; minutes-long
/// ungoverned at n = 35). Only ever run governed.
struct AdversarialInstance {
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> views;
};

AdversarialInstance MakeAdversarial(std::size_t odd_len) {
  auto schema = GraphSchema();
  AdversarialInstance inst{
      BooleanQueryFromStructure("q", SymmetricCycle(schema, 4)), {}};
  inst.views.push_back(
      BooleanQueryFromStructure("v", SymmetricCycle(schema, odd_len)));
  return inst;
}

/// Small pipeline instance: directed cycles of lengths 1..k as components;
/// the ramp view makes it undetermined so the whole counterexample path
/// runs.
struct SmallInstance {
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> views;
};

SmallInstance MakeUndetermined(std::size_t k) {
  auto schema = GraphSchema();
  std::vector<Structure> comps;
  for (std::size_t len = 1; len <= k; ++len) {
    Structure c(schema);
    for (Element i = 0; i < len; ++i) {
      c.AddFact(0, {i, static_cast<Element>((i + 1) % len)});
    }
    comps.push_back(std::move(c));
  }
  auto combine = [&](const std::vector<int>& mult) {
    Structure s(schema);
    for (std::size_t i = 0; i < comps.size(); ++i) {
      for (int m = 0; m < mult[i]; ++m) s = DisjointUnion(s, comps[i]);
    }
    return s;
  };
  SmallInstance inst{
      BooleanQueryFromStructure("q", combine(std::vector<int>(k, 1))), {}};
  std::vector<int> ramp(k);
  for (std::size_t i = 0; i < k; ++i) ramp[i] = static_cast<int>(i + 1);
  inst.views.push_back(BooleanQueryFromStructure("v", combine(ramp)));
  return inst;
}

class GovernedTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- ExecContext unit behavior ---------------------------------------------

TEST_F(GovernedTest, UnlimitedContextNeverTrips) {
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    for (int i = 0; i < 100000; ++i) ExecCheckPoint("test.loop");
    return 42;
  });
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(exec.tripped());
}

TEST_F(GovernedTest, DeadlineTripsBusyLoop) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/20, /*max_memory_bytes=*/0}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    for (;;) ExecCheckPoint("test.spin");
    return 0;  // Unreachable.
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kDeadlineExceeded);
  EXPECT_EQ(status.kernel, "test.spin");
  EXPECT_GE(status.elapsed_ms, 20.0);
}

TEST_F(GovernedTest, CancellationFromAnotherThread) {
  ExecContext exec{ExecLimits{}};
  std::atomic<bool> started{false};
  ExecStatus status;
  std::thread worker([&] {
    RunGoverned(exec, &status, [&] {
      started.store(true);
      for (;;) ExecCheckPoint("test.spin");
      return 0;
    });
  });
  while (!started.load()) std::this_thread::yield();
  exec.RequestCancel();
  worker.join();
  EXPECT_EQ(status.code, ExecCode::kCancelled);
  EXPECT_EQ(status.kernel, "test.spin");
}

TEST_F(GovernedTest, MemoryBudgetTripsOnCharge) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/0, /*max_memory_bytes=*/1024}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [&] {
    ScopedCharge mem("test.table");
    mem.Update(512);   // Within budget.
    mem.Update(256);   // Shrink: releases 256.
    mem.Update(2048);  // Past budget: trips.
    return 0;
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "test.table");
  EXPECT_GT(status.bytes, 1024u);
  // ScopedCharge released its held bytes during the unwind: the context is
  // back to a zero balance and usable for accounting queries.
  EXPECT_EQ(exec.bytes_charged(), 0u);
}

TEST_F(GovernedTest, BadAllocFoldsIntoResourceExhausted) {
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, []() -> int {
    throw std::bad_alloc();
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "alloc");
}

TEST_F(GovernedTest, StatusToStringNamesEverything) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/1, /*max_memory_bytes=*/0}};
  ExecStatus status;
  RunGoverned(exec, &status, [] {
    for (;;) ExecCheckPoint("hom.dp");
    return 0;
  });
  const std::string text = status.ToString();
  EXPECT_NE(text.find("deadline_exceeded"), std::string::npos) << text;
  EXPECT_NE(text.find("hom.dp"), std::string::npos) << text;
}

// --- Governed pipeline entry points ----------------------------------------

TEST_F(GovernedTest, DeadlineTripsAdversarialAnalyze) {
  // Ungoverned this instance takes minutes (the ExistsHom proof tree is
  // ~2^35 nodes); governed it must stop within the deadline plus the
  // checkpoint sampling slack, reporting the tripping kernel.
  AdversarialInstance inst = MakeAdversarial(35);
  ExecContext exec{ExecLimits{/*deadline_ms=*/50, /*max_memory_bytes=*/0}};
  ExecStatus status;
  auto analysis = RunGoverned(
      exec, &status, [&] { return AnalyzeInstance(inst.views, inst.query); });
  ASSERT_FALSE(analysis.has_value());
  EXPECT_EQ(status.code, ExecCode::kDeadlineExceeded);
  // The backtracking search checkpoints both at its nodes (hom.matcher)
  // and inside per-binding domain propagation (hom.domains) — either may
  // observe the deadline first.
  EXPECT_TRUE(status.kernel == "hom.matcher" || status.kernel == "hom.domains")
      << status.kernel;
  // Overshoot bound: the sampler targets ~1ms between clock reads, so even
  // on a loaded CI host the trip lands well under 10x the deadline.
  EXPECT_LT(status.elapsed_ms, 500.0);
}

TEST_F(GovernedTest, CancellationStopsAdversarialAnalyze) {
  AdversarialInstance inst = MakeAdversarial(35);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  std::optional<InstanceAnalysis> analysis;
  std::thread worker([&] {
    analysis = RunGoverned(
        exec, &status, [&] { return AnalyzeInstance(inst.views, inst.query); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exec.RequestCancel();
  worker.join();
  ASSERT_FALSE(analysis.has_value());
  EXPECT_EQ(status.code, ExecCode::kCancelled);
}

TEST_F(GovernedTest, MemoryBudgetRejectsPoolAdmission) {
  // A budget below the smallest projected pool footprint: the first intern
  // is rejected before any shard state exists, and the typed status names
  // the admission-control kernel.
  SmallInstance inst = MakeUndetermined(3);
  ExecContext exec{ExecLimits{/*deadline_ms=*/0, /*max_memory_bytes=*/64}};
  ExecStatus status;
  auto analysis = RunGoverned(
      exec, &status, [&] { return AnalyzeInstance(inst.views, inst.query); });
  ASSERT_FALSE(analysis.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "pool.intern");
  EXPECT_GT(status.bytes, 64u);
}

TEST_F(GovernedTest, GovernedUnlimitedBitIdenticalToUngoverned) {
  SmallInstance inst = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(inst.views, inst.query);
  ASSERT_FALSE(baseline.determined);
  ASSERT_TRUE(baseline.counterexample.has_value());
  const std::string baseline_summary = baseline.Summary();
  for (int iter = 0; iter < DiffIters(); ++iter) {
    ExecContext exec{ExecLimits{}};
    GovernedDecision governed = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), exec);
    ASSERT_TRUE(governed.status.ok());
    ASSERT_TRUE(governed.result.has_value());
    EXPECT_EQ(governed.result->Summary(), baseline_summary);
    EXPECT_TRUE(governed.result->exec_status.ok());
  }
}

TEST_F(GovernedTest, CancelledContextStopsSynthesisWalk) {
  // The Lemma 57 walk checkpoints once per step: under an already-cancelled
  // context, synthesis trips there and names its kernel. The exact linear
  // algebra before the walk has no checkpoint, so the walk's is the first.
  SmallInstance inst = MakeUndetermined(2);
  DeterminacyOptions options;
  options.want_counterexample = false;
  DeterminacyResult decided =
      DecideBagDeterminacy(inst.views, inst.query, options);
  ASSERT_FALSE(decided.determined);
  const GoodBasis basis =
      BuildGoodBasis(decided.analysis, DistinguisherOptions());
  ExecContext exec{ExecLimits{}};
  exec.RequestCancel();
  ExecStatus status;
  auto counterexample = RunGoverned(exec, &status, [&] {
    return SynthesizeCounterexample(decided.analysis, basis);
  });
  EXPECT_FALSE(counterexample.has_value());
  EXPECT_EQ(status.code, ExecCode::kCancelled);
  EXPECT_EQ(status.kernel, "core.synthesize");
}

TEST_F(GovernedTest, TrippedRequestLeavesNextRequestUnaffected) {
  // A deadline trip on one request must not poison the process for the
  // next (fresh context, fresh analysis): the follow-up decision on a
  // normal instance matches its ungoverned baseline exactly.
  AdversarialInstance bad = MakeAdversarial(35);
  ExecContext doomed{ExecLimits{/*deadline_ms=*/30, /*max_memory_bytes=*/0}};
  ExecStatus tripped;
  auto analysis = RunGoverned(
      doomed, &tripped, [&] { return AnalyzeInstance(bad.views, bad.query); });
  ASSERT_FALSE(analysis.has_value());

  SmallInstance good = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(good.views, good.query);
  ExecContext fresh{ExecLimits{}};
  GovernedDecision after = DecideBagDeterminacyGoverned(
      good.views, good.query, DeterminacyOptions(), fresh);
  ASSERT_TRUE(after.result.has_value());
  EXPECT_EQ(after.result->Summary(), baseline.Summary());
}

// --- Typed distinguisher/basis outcomes (no exceptions on bound
// exhaustion) ----------------------------------------------------------------

/// The tier-0 blind pair (blind_pair.h) with the sweep switched off:
/// neither the inputs themselves nor the random fallback separate it, so
/// kBoundsExhausted is genuinely reachable; default bounds sweep the
/// complete induced-substructure family, which is guaranteed to separate
/// them.
DistinguisherOptions CrippledDistinguisher() {
  DistinguisherOptions tight;
  tight.max_subset_domain = 2;  // Both inputs (domain 5) skip the sweep.
  return tight;
}

TEST_F(GovernedTest, DistinguisherBoundsExhaustionIsTyped) {
  // Tier-0 blind pair + crippled sweep: SearchDistinguisher reports
  // kBoundsExhausted.
  auto schema = blind::PairSchema();
  Structure a = blind::PairA(schema);
  Structure b = blind::PairB(schema);
  ASSERT_EQ(CountHoms(a, a), CountHoms(b, a));  // Tier 0 really is blind.
  ASSERT_EQ(CountHoms(a, b), CountHoms(b, b));
  DistinguisherOptions tight = CrippledDistinguisher();
  DistinguisherSearch search = SearchDistinguisher(a, b, tight);
  EXPECT_EQ(search.outcome, DistinguisherOutcome::kBoundsExhausted);
  EXPECT_FALSE(search.distinguisher.has_value());
  // Default bounds admit the complete sweep and succeed on the same pair.
  DistinguisherSearch wide = SearchDistinguisher(a, b, DistinguisherOptions());
  EXPECT_EQ(wide.outcome, DistinguisherOutcome::kFound);
  ASSERT_TRUE(wide.distinguisher.has_value());
  EXPECT_NE(CountHoms(a, *wide.distinguisher),
            CountHoms(b, *wide.distinguisher));
}

TEST_F(GovernedTest, DecideSurvivesDistinguisherExhaustion) {
  // The tier-0 blind pair as the two basis components of an undetermined
  // instance, under a crippled distinguisher: the verdict (NOT determined)
  // still comes back, no exception escapes, and the missing certificate is
  // explained by exec_status.
  auto schema = blind::PairSchema();
  Structure a = blind::PairA(schema);
  Structure b = blind::PairB(schema);
  ConjunctiveQuery query = BooleanQueryFromStructure("q", DisjointUnion(a, b));
  std::vector<ConjunctiveQuery> views;
  views.push_back(BooleanQueryFromStructure(
      "v", DisjointUnion(DisjointUnion(a, b), b)));  // Vector (1,2) vs (1,1).
  DeterminacyOptions options;
  options.distinguisher = CrippledDistinguisher();
  DeterminacyResult result = DecideBagDeterminacy(views, query, options);
  EXPECT_FALSE(result.determined);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.exec_status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(result.exec_status.kernel, "distinguisher");
  EXPECT_NE(result.Summary().find("Counterexample unavailable"),
            std::string::npos);
  // TryBuildGoodBasis reports the same typed outcome directly.
  GoodBasisOutcome basis =
      TryBuildGoodBasis(result.analysis, options.distinguisher);
  EXPECT_FALSE(basis.basis.has_value());
  EXPECT_EQ(basis.status.code, ExecCode::kResourceExhausted);
  // With default bounds the same instance yields a verified certificate.
  DeterminacyResult healthy = DecideBagDeterminacy(views, query);
  EXPECT_FALSE(healthy.determined);
  ASSERT_TRUE(healthy.counterexample.has_value());
  EXPECT_TRUE(healthy.exec_status.ok());
}

// --- Failpoint registry ------------------------------------------------------

TEST_F(GovernedTest, RegistryCountsAndDisarms) {
  // The registry itself is always compiled; only the in-kernel hooks are
  // build-gated. Direct Evaluate calls exercise trigger logic everywhere.
  failpoint::Config off;
  off.action = failpoint::Action::kOff;
  failpoint::Arm("test/site", off);
  for (int i = 0; i < 5; ++i) failpoint::Evaluate("test/site");
  EXPECT_EQ(failpoint::HitCount("test/site"), 5u);
  EXPECT_EQ(failpoint::ArmedNames(), std::vector<std::string>{"test/site"});
  failpoint::Evaluate("test/unarmed");  // No-op.
  EXPECT_EQ(failpoint::HitCount("test/unarmed"), 0u);
  failpoint::Disarm("test/site");
  EXPECT_TRUE(failpoint::ArmedNames().empty());
  failpoint::Evaluate("test/site");
  EXPECT_EQ(failpoint::HitCount("test/site"), 0u);
}

TEST_F(GovernedTest, RegistryNthHitTrigger) {
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 3;
  failpoint::Arm("test/nth", cfg);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_THROW(failpoint::Evaluate("test/nth"), std::bad_alloc);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));  // Exactly once.
  // Re-arming resets the hit counter.
  failpoint::Arm("test/nth", cfg);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_EQ(failpoint::HitCount("test/nth"), 1u);
}

TEST_F(GovernedTest, RegistryProbabilisticTriggerIsSeeded) {
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.probability = 0.5;
  cfg.seed = 7;
  auto fire_pattern = [&] {
    failpoint::Arm("test/coin", cfg);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      try {
        failpoint::Evaluate("test/coin");
        pattern += '.';
      } catch (const std::bad_alloc&) {
        pattern += 'X';
      }
    }
    return pattern;
  };
  const std::string first = fire_pattern();
  EXPECT_EQ(fire_pattern(), first);  // Deterministic for a fixed seed.
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  // Cancel without a governing context is a no-op by design.
  failpoint::Config cancel;
  cancel.action = failpoint::Action::kCancel;
  failpoint::Arm("test/cancel", cancel);
  EXPECT_NO_THROW(failpoint::Evaluate("test/cancel"));
}

// --- Injected faults across the pipeline (BAGDET_FAILPOINTS builds) ---------

TEST_F(GovernedTest, InjectedCancelMidDp) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  Structure from = SymmetricCycle(schema, 5);
  Structure to = FullDigraph(schema, 5);
  const BigInt baseline = CountHoms(from, to);
  for (int iter = 0; iter < DiffIters(); ++iter) {
    failpoint::Config cfg;
    cfg.action = failpoint::Action::kCancel;
    cfg.hit_on = 1;
    failpoint::Arm("hom/dp_step", cfg);
    ExecContext exec{ExecLimits{}};
    ExecStatus status;
    auto value = RunGoverned(exec, &status,
                             [&] { return CountHoms(from, to); });
    EXPECT_FALSE(value.has_value());
    EXPECT_EQ(status.code, ExecCode::kCancelled);
    failpoint::DisarmAll();
    // Clean unwind: the disarmed rerun is bit-identical.
    EXPECT_EQ(CountHoms(from, to), baseline);
  }
}

TEST_F(GovernedTest, InjectedCancelMidCanonicalSearch) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  // Query bodies are canonicalized lazily, inside the decision: interning
  // q and the relevant views runs the first searches under the governed
  // scope, and the distinguisher's sweep canonicalizes its fresh
  // candidates later. The tier-0 blind pair forces that sweep (its
  // candidates have domain <= 5, under the caching cutoff), so searches
  // run mid-decide, and the injected cancel lands on the first of them.
  auto schema = blind::PairSchema();
  Structure a = blind::PairA(schema);
  Structure b = blind::PairB(schema);
  ConjunctiveQuery query = BooleanQueryFromStructure("q", DisjointUnion(a, b));
  std::vector<ConjunctiveQuery> views;
  views.push_back(
      BooleanQueryFromStructure("v", DisjointUnion(DisjointUnion(a, b), b)));
  DeterminacyResult baseline = DecideBagDeterminacy(views, query);
  ASSERT_TRUE(baseline.counterexample.has_value());
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kCancel;
  cfg.hit_on = 1;
  failpoint::Arm("canonical/branch", cfg);
  ExecContext exec{ExecLimits{}};
  GovernedDecision out =
      DecideBagDeterminacyGoverned(views, query, DeterminacyOptions(), exec);
  ASSERT_FALSE(out.result.has_value());
  EXPECT_EQ(out.status.code, ExecCode::kCancelled);
  EXPECT_GE(failpoint::HitCount("canonical/branch"), 1u);
  failpoint::DisarmAll();
  ExecContext fresh{ExecLimits{}};
  GovernedDecision rerun =
      DecideBagDeterminacyGoverned(views, query, DeterminacyOptions(), fresh);
  ASSERT_TRUE(rerun.result.has_value());
  EXPECT_EQ(rerun.result->Summary(), baseline.Summary());
}

TEST_F(GovernedTest, InjectedAllocFailureInDpTable) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  // C5 -> K5 keeps two live variables over five elements: a 25-cell key
  // space, indexed directly, so the injection site fires when a Reset
  // first allocates a table's slots.
  Structure from = SymmetricCycle(schema, 5);
  Structure to = FullDigraph(schema, 5);
  const BigInt baseline = CountHoms(from, to);
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("hom/dp_table_grow", cfg);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return CountHoms(from, to); });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  failpoint::DisarmAll();
  EXPECT_EQ(CountHoms(from, to), baseline);
}

TEST_F(GovernedTest, InjectedAllocFailureInHashModeDpTableGrow) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  // One undirected edge keeps both ends live after its first atom. Over
  // 257 elements that key space has 257^2 = 66049 cells, past the 2^16
  // that are indexed directly, so the table hashes; its 1028 entries
  // (the target's edges: i <-> i+1 and i <-> i+2, mod 257) grow it from
  // 16 slots.
  Structure from(schema, 2);
  from.AddFact(0, {0, 1});
  from.AddFact(0, {1, 0});
  constexpr Element kN = 257;
  Structure to(schema, kN);
  for (Element i = 0; i < kN; ++i) {
    for (Element step : {1u, 2u}) {
      const Element j = (i + step) % kN;
      to.AddFact(0, {i, j});
      to.AddFact(0, {j, i});
    }
  }
  const BigInt baseline = CountHoms(from, to);
  ASSERT_EQ(baseline, BigInt(4 * kN));
  failpoint::Arm("hom/dp_table_grow", failpoint::Config{});  // Counts only.
  EXPECT_EQ(CountHoms(from, to), baseline);
  const std::uint64_t hits = failpoint::HitCount("hom/dp_table_grow");
  // Two atoms: at most three Resets (the first table, one per atom) can
  // allocate, so the other hits are hash-mode Grows. Each one must unwind.
  EXPECT_GT(hits, 3u);
  for (std::uint64_t hit = 1; hit <= hits; ++hit) {
    failpoint::Config cfg;
    cfg.action = failpoint::Action::kBadAlloc;
    cfg.hit_on = hit;
    failpoint::Arm("hom/dp_table_grow", cfg);
    ExecContext exec{ExecLimits{}};
    ExecStatus status;
    auto value =
        RunGoverned(exec, &status, [&] { return CountHoms(from, to); });
    EXPECT_FALSE(value.has_value()) << "hit " << hit;
    EXPECT_EQ(status.code, ExecCode::kResourceExhausted) << "hit " << hit;
  }
  failpoint::DisarmAll();
  EXPECT_EQ(CountHoms(from, to), baseline);
}

TEST_F(GovernedTest, InjectedAllocFailureInBigInt) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("bigint/alloc", cfg);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    // Forces a limb spill (> 2 limbs) — the injection site.
    return BigInt::Pow(BigInt(2), 300);
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  failpoint::DisarmAll();
  EXPECT_EQ(BigInt::Pow(BigInt(2), 300),
            BigInt::Pow(BigInt(2), 150) * BigInt::Pow(BigInt(2), 150));
}

TEST_F(GovernedTest, InjectedAllocFailureLeavesHomCacheConsistent) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  Structure from = SymmetricCycle(schema, 3);
  Structure to = FullDigraph(schema, 3);
  const BigInt expected = CountHoms(from, to);
  HomCache cache;
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("homcache/insert", cfg);
  EXPECT_THROW(cache.Count(from, to), std::bad_alloc);
  failpoint::DisarmAll();
  // The aborted insert left the shard untouched: the same cache serves the
  // same pair correctly (recomputed, then memoized).
  EXPECT_EQ(cache.Count(from, to), expected);
  EXPECT_EQ(cache.Count(from, to), expected);  // Now a cache hit.
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST_F(GovernedTest, InjectedFaultMidCountLoop) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  // A cold loop of HomCache::Count calls, the shape of BuildGoodBasis'
  // radix scan: the hom/dp_step site fires inside a memoized count, both
  // fault flavors must unwind cleanly out of the loop, and the cache must
  // keep no poisoned entry.
  auto schema = GraphSchema();
  std::vector<Structure> sources;
  for (std::size_t n = 3; n <= 8; ++n) {
    sources.push_back(SymmetricCycle(schema, n));
  }
  const Structure target = FullDigraph(schema, 5);
  std::vector<BigInt> serial;
  for (const Structure& source : sources) {
    serial.push_back(CountHoms(source, target));
  }
  auto make_pairs = [&](HomCache& cache) {
    std::vector<std::pair<StructureRef, StructureRef>> pairs;
    const StructureRef to = cache.Intern(target);
    for (const Structure& source : sources) {
      pairs.emplace_back(cache.Intern(source), to);
    }
    return pairs;
  };
  auto count_all = [](HomCache& cache, const auto& pairs) {
    std::vector<BigInt> counts;
    for (const auto& [from, to] : pairs) {
      counts.push_back(cache.Count(from, to));
    }
    return counts;
  };
  for (int iter = 0; iter < DiffIters(); ++iter) {
    // Injected cancel mid-loop → governed trip, kCancelled.
    HomCache cancelled_cache;
    const auto cancelled_pairs = make_pairs(cancelled_cache);
    failpoint::Config cancel;
    cancel.action = failpoint::Action::kCancel;
    cancel.hit_on = 2;  // Second DP step: the loop is already running.
    failpoint::Arm("hom/dp_step", cancel);
    ExecContext exec{ExecLimits{}};
    ExecStatus status;
    auto value = RunGoverned(exec, &status, [&] {
      return count_all(cancelled_cache, cancelled_pairs);
    });
    EXPECT_FALSE(value.has_value());
    EXPECT_EQ(status.code, ExecCode::kCancelled);
    EXPECT_GE(failpoint::HitCount("hom/dp_step"), 2u);
    failpoint::DisarmAll();
    EXPECT_EQ(count_all(cancelled_cache, cancelled_pairs), serial);

    // Injected allocation failure mid-loop → kResourceExhausted.
    HomCache oom_cache;
    const auto oom_pairs = make_pairs(oom_cache);
    failpoint::Config oom;
    oom.action = failpoint::Action::kBadAlloc;
    oom.hit_on = 1;
    failpoint::Arm("hom/dp_step", oom);
    ExecContext exec2{ExecLimits{}};
    ExecStatus status2;
    auto value2 = RunGoverned(exec2, &status2, [&] {
      return count_all(oom_cache, oom_pairs);
    });
    EXPECT_FALSE(value2.has_value());
    EXPECT_EQ(status2.code, ExecCode::kResourceExhausted);
    failpoint::DisarmAll();

    // Clean unwind: the disarmed rerun matches the serial counts, and the
    // cache then serves every pair from its memo.
    EXPECT_EQ(count_all(oom_cache, oom_pairs), serial);
    const HomCache::Stats before = oom_cache.stats();
    EXPECT_EQ(count_all(oom_cache, oom_pairs), serial);
    const HomCache::Stats after = oom_cache.stats();
    EXPECT_EQ(after.hits - before.hits, oom_pairs.size());
    EXPECT_EQ(after.misses, before.misses);
  }
}

TEST_F(GovernedTest, InjectedCancelMidDecidePipeline) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  SmallInstance inst = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(inst.views, inst.query);
  const std::string baseline_summary = baseline.Summary();
  for (int iter = 0; iter < DiffIters(); ++iter) {
    failpoint::Config cfg;
    cfg.action = failpoint::Action::kCancel;
    cfg.hit_on = 5;  // Deep enough that real pipeline work is in flight.
    failpoint::Arm("hom/matcher", cfg);
    ExecContext exec{ExecLimits{}};
    GovernedDecision tripped = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), exec);
    EXPECT_FALSE(tripped.result.has_value());
    EXPECT_EQ(tripped.status.code, ExecCode::kCancelled);
    failpoint::DisarmAll();
    ExecContext fresh{ExecLimits{}};
    GovernedDecision rerun = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), fresh);
    ASSERT_TRUE(rerun.result.has_value());
    EXPECT_EQ(rerun.result->Summary(), baseline_summary);
  }
}

}  // namespace
}  // namespace bagdet
