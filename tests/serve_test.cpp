// Serving layer (serve/service.h): admission control, overload shedding,
// retry/backoff, graceful degradation, deterministic drain, and persistent
// pool/cache generations.
//
// The contract under test, end to end:
//   * every submitted request terminates in exactly one typed outcome
//     (answered / degraded / shed / declined) — no escaping exceptions, no
//     lost futures, counters that add up;
//   * shedding is synchronous and typed (kOverloaded + retry-after hint),
//     and Shutdown() returns only after every accepted future is ready;
//   * a no-limits single request through the service is bit-identical to
//     the direct DecideBagDeterminacy path;
//   * injected faults (serve/admit, serve/dispatch, and kernel-level
//     cancel/bad_alloc) become typed outcomes, leave the persistent pool
//     and cache usable, and a clean rerun is bit-identical;
//   * generation rotation never invalidates refs held by in-flight
//     requests or returned results.
//
// Fault-injection cases need a -DBAGDET_FAILPOINTS=ON build and GTEST_SKIP
// otherwise. BAGDET_DIFF_ITERS scales the randomized mixed-load loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blind_pair.h"
#include "core/determinacy.h"
#include "hom/hom.h"
#include "query/cq.h"
#include "serve/service.h"
#include "structs/pool.h"
#include "structs/structure.h"
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

/// Adversarial request: view relevance runs ExistsHom(C35_sym, C4_sym),
/// an exponential no-instance — minutes ungoverned, so only ever run with
/// a deadline. Keeps one runner busy for exactly the deadline.
ServeRequest MakeAdversarialRequest(std::uint64_t deadline_ms) {
  auto schema = GraphSchema();
  ServeRequest req;
  req.query = BooleanQueryFromStructure("q", SymmetricCycle(schema, 4));
  req.views.push_back(
      BooleanQueryFromStructure("v", SymmetricCycle(schema, 35)));
  req.limits.deadline_ms = deadline_ms;
  req.options.want_counterexample = false;
  return req;
}

/// Small undetermined instance (directed cycles 1..k + ramp view): the
/// whole pipeline runs, counterexample included.
ServeRequest MakeUndeterminedRequest(std::size_t k) {
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
  ServeRequest req;
  req.query = BooleanQueryFromStructure("q", combine(std::vector<int>(k, 1)));
  std::vector<int> ramp(k);
  for (std::size_t i = 0; i < k; ++i) ramp[i] = static_cast<int>(i + 1);
  req.views.push_back(BooleanQueryFromStructure("v", combine(ramp)));
  return req;
}

/// Trivially determined: the view *is* the query.
ServeRequest MakeDeterminedRequest(std::size_t cycle_len) {
  auto schema = GraphSchema();
  Structure c(schema);
  for (Element i = 0; i < cycle_len; ++i) {
    c.AddFact(0, {i, static_cast<Element>((i + 1) % cycle_len)});
  }
  ServeRequest req;
  req.query = BooleanQueryFromStructure("q", c);
  req.views.push_back(BooleanQueryFromStructure("v", c));
  return req;
}

/// The tier-0 blind pair (blind_pair.h) under a crippled distinguisher:
/// NOT determined, and the counterexample certificate is unreachable — the
/// deterministic built-in degraded answer.
ServeRequest MakeDistinguisherExhaustedRequest() {
  auto schema = blind::PairSchema();
  Structure a = blind::PairA(schema);
  Structure b = blind::PairB(schema);
  ServeRequest req;
  req.query = BooleanQueryFromStructure("q", DisjointUnion(a, b));
  req.views.push_back(BooleanQueryFromStructure(
      "v", DisjointUnion(DisjointUnion(a, b), b)));
  req.options.distinguisher.max_subset_domain = 2;
  return req;
}

/// Waits until `pred` holds or ~2s pass; returns whether it held.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- Baseline equivalence ---------------------------------------------------

TEST_F(ServeTest, NoLimitsRequestMatchesDirectDecision) {
  for (bool determined : {true, false}) {
    ServeRequest req =
        determined ? MakeDeterminedRequest(3) : MakeUndeterminedRequest(3);
    const DeterminacyResult direct =
        DecideBagDeterminacy(req.views, req.query, req.options);

    DeterminacyService service;
    ServeResponse resp = service.Call(req);
    ASSERT_EQ(resp.outcome, ServeOutcome::kAnswered);
    EXPECT_EQ(resp.attempts, 1u);
    EXPECT_EQ(resp.retries, 0u);
    EXPECT_FALSE(resp.degraded);
    ASSERT_TRUE(resp.result.has_value());
    EXPECT_EQ(resp.result->determined, direct.determined);
    EXPECT_TRUE(resp.result->exec_status.ok());
    // Summary() prints verdict, witness exponents, and counterexample
    // coordinates — a deep bit-identity proxy for the whole result.
    EXPECT_EQ(resp.result->Summary(), direct.Summary());
  }
}

TEST_F(ServeTest, MalformedRequestIsTypedDecline) {
  auto schema = GraphSchema();
  auto other = std::make_shared<Schema>();  // Different relation name →
  other->AddRelation("F", 2);               // schema mismatch (structural).
  Structure q(schema), v(other);
  q.AddFact(0, {0, 0});
  v.AddFact(0, {0, 0});
  ServeRequest req;
  req.query = BooleanQueryFromStructure("q", q);
  req.views.push_back(BooleanQueryFromStructure("v", v));

  DeterminacyService service;
  ServeResponse resp = service.Call(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kDeclined);
  EXPECT_EQ(resp.status.code, ExecCode::kInvalidArgument);
  EXPECT_FALSE(resp.message.empty());
  EXPECT_EQ(resp.retries, 0u);  // Malformed input never retries.

  // The service survives: a well-formed request right after still answers.
  EXPECT_EQ(service.Call(MakeDeterminedRequest(3)).outcome,
            ServeOutcome::kAnswered);
}

// --- Admission control and shedding -----------------------------------------

TEST_F(ServeTest, QueueOverflowShedsTyped) {
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  DeterminacyService service(opts);

  // Occupy the single runner with a deadline-bounded adversarial request,
  // fill the one queue slot, then everything further must shed.
  auto running = service.Submit(MakeAdversarialRequest(/*deadline_ms=*/400));
  ASSERT_TRUE(WaitFor([&] { return service.stats().executing == 1; }));
  auto queued = service.Submit(MakeAdversarialRequest(/*deadline_ms=*/50));

  std::vector<std::future<ServeResponse>> shed;
  for (int i = 0; i < 3; ++i) {
    shed.push_back(service.Submit(MakeDeterminedRequest(3)));
  }
  for (auto& f : shed) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);  // Shedding is synchronous.
    ServeResponse resp = f.get();
    EXPECT_EQ(resp.outcome, ServeOutcome::kShed);
    EXPECT_EQ(resp.status.code, ExecCode::kOverloaded);
    EXPECT_EQ(resp.status.kernel, "serve/admit");
    EXPECT_GE(resp.retry_after_ms, 1.0);
    EXPECT_FALSE(resp.result.has_value());
  }

  // The occupants still end in their own typed outcomes (deadline decline).
  for (auto* f : {&running, &queued}) {
    ServeResponse resp = f->get();
    EXPECT_EQ(resp.outcome, ServeOutcome::kDeclined);
    EXPECT_EQ(resp.status.code, ExecCode::kDeadlineExceeded);
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 3u);
}

TEST_F(ServeTest, ShutdownDrainsAndLaterSubmitsShed) {
  ServiceOptions opts;
  opts.max_concurrent = 2;
  DeterminacyService service(opts);

  std::vector<std::future<ServeResponse>> accepted;
  for (int i = 0; i < 6; ++i) {
    accepted.push_back(service.Submit(MakeUndeterminedRequest(3)));
  }
  service.Shutdown();

  // Deterministic drain: when Shutdown returns, every accepted future is
  // already fulfilled with a typed outcome.
  for (auto& f : accepted) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().outcome, ServeOutcome::kAnswered);
  }

  ServeResponse late = service.Call(MakeDeterminedRequest(3));
  EXPECT_EQ(late.outcome, ServeOutcome::kShed);
  EXPECT_EQ(late.status.code, ExecCode::kOverloaded);
  EXPECT_EQ(late.status.kernel, "serve/shutdown");

  service.Shutdown();  // Idempotent.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.answered, 6u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.executing, 0u);
}

// --- Degradation ------------------------------------------------------------

TEST_F(ServeTest, DistinguisherExhaustionIsDegradedAnswer) {
  DeterminacyService service;
  ServeResponse resp = service.Call(MakeDistinguisherExhaustedRequest());
  EXPECT_EQ(resp.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(resp.status.kernel, "distinguisher");
  ASSERT_TRUE(resp.result.has_value());
  EXPECT_FALSE(resp.result->determined);  // The verdict is still valid.
  EXPECT_FALSE(resp.result->counterexample.has_value());
}

TEST_F(ServeTest, DeadlineTripDegradesToVerdictOnly) {
  // The adversarial relevance check trips the deadline at both tiers →
  // decline; with degradation disabled the decline is immediate. Both
  // paths end typed, never hung.
  ServiceOptions opts;
  opts.allow_degraded = false;
  DeterminacyService service(opts);
  ServeRequest req = MakeAdversarialRequest(/*deadline_ms=*/60);
  req.options.want_counterexample = true;
  ServeResponse resp = service.Call(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kDeclined);
  EXPECT_EQ(resp.status.code, ExecCode::kDeadlineExceeded);
  EXPECT_EQ(resp.attempts, 1u);

  // With degradation allowed, the dropped tier re-runs verdict-only and
  // still trips (the adversarial part is the analysis itself) — but the
  // degraded attempt was made: two attempts, typed decline, no retry of
  // a deterministic trip.
  DeterminacyService degrading;
  ServeResponse resp2 = degrading.Call(req);
  EXPECT_EQ(resp2.outcome, ServeOutcome::kDeclined);
  EXPECT_EQ(resp2.status.code, ExecCode::kDeadlineExceeded);
  EXPECT_EQ(resp2.attempts, 2u);
  EXPECT_EQ(resp2.retries, 0u);
}

// --- Persistent pool, cache reuse, generations ------------------------------

TEST_F(ServeTest, RepeatedRequestsHitWarmCache) {
  DeterminacyService service;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.Call(MakeUndeterminedRequest(3)).outcome,
              ServeOutcome::kAnswered);
  }
  ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_hits, 0u);  // Identical instances memoize.
  EXPECT_EQ(stats.rotations, 0u);
  EXPECT_GT(stats.pool_classes, 0u);
  EXPECT_GT(stats.pool_bytes, 0u);
}

TEST_F(ServeTest, RotationNeverInvalidatesHeldResults) {
  ServiceOptions opts;
  opts.pool_max_classes = 1;  // Rotate after (essentially) every request.
  DeterminacyService service(opts);

  std::vector<ServeResponse> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(service.Call(MakeUndeterminedRequest(3)));
    held.push_back(service.Call(MakeDeterminedRequest(3)));
  }
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.rotations, 1u);
  EXPECT_EQ(stats.generation, stats.rotations + 1);

  // Every held result's refs still resolve against its own (retired)
  // generation, and its certificate still verifies end to end.
  for (ServeResponse& resp : held) {
    ASSERT_EQ(resp.outcome, ServeOutcome::kAnswered);
    ASSERT_TRUE(resp.result.has_value());
    const InstanceAnalysis& analysis = resp.result->analysis;
    for (StructureRef ref : analysis.basis_refs) {
      ASSERT_TRUE(analysis.hom_cache->pool().Contains(ref));
      analysis.hom_cache->pool().At(ref);  // Must not fault.
    }
    if (resp.result->counterexample.has_value()) {
      EXPECT_EQ(VerifyCounterexample(analysis, *resp.result->counterexample),
                std::nullopt);
    }
  }
}

TEST_F(ServeTest, CacheBytesAloneRotateTheGeneration) {
  // One request's generation footprint, measured on an idle service.
  std::uint64_t pool_bytes = 0, cache_bytes = 0, cache_entries = 0;
  {
    DeterminacyService probe;
    ASSERT_EQ(probe.Call(MakeUndeterminedRequest(3)).outcome,
              ServeOutcome::kAnswered);
    pool_bytes = probe.stats().pool_bytes;
    cache_bytes = probe.generation_cache()->ApproxBytes();
    cache_entries = probe.generation_cache()->stats().entries;
  }
  ASSERT_GT(pool_bytes, 0u);
  ASSERT_GT(cache_bytes, 0u);
  ASSERT_GT(cache_entries, 0u);

  // The pool alone stays within both budgets; only the memoized counts
  // and decompositions push the generation over the byte budget.
  ServiceOptions opts;
  opts.pool_max_classes = std::size_t{1} << 20;
  opts.pool_max_bytes = pool_bytes + cache_bytes - 1;
  DeterminacyService service(opts);
  constexpr int kRequests = 4;
  std::vector<ServeResponse> held;
  for (int i = 0; i < kRequests; ++i) {
    held.push_back(service.Call(MakeUndeterminedRequest(3)));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rotations, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.generation, stats.rotations + 1);
  // Rotation retires every count entry of each generation.
  EXPECT_EQ(stats.cache_evictions, kRequests * cache_entries);

  for (ServeResponse& resp : held) {
    ASSERT_EQ(resp.outcome, ServeOutcome::kAnswered);
    ASSERT_TRUE(resp.result.has_value());
    const InstanceAnalysis& analysis = resp.result->analysis;
    for (StructureRef ref : analysis.basis_refs) {
      ASSERT_TRUE(analysis.hom_cache->pool().Contains(ref));
    }
    ASSERT_TRUE(resp.result->counterexample.has_value());
    EXPECT_EQ(VerifyCounterexample(analysis, *resp.result->counterexample),
              std::nullopt);
  }
}

// --- Concurrent clients and outcome accounting ------------------------------

TEST_F(ServeTest, ConcurrentMixedLoadEveryRequestOneTypedOutcome) {
  const int iters = DiffIters();
  for (int iter = 0; iter < iters; ++iter) {
    ServiceOptions opts;
    constexpr int kMaxQueue = 4;
    opts.max_concurrent = 2;
    opts.max_queue = kMaxQueue;
    DeterminacyService service(opts);

    constexpr int kClients = 4;
    constexpr int kPerClient = 6;
    // One more client submits bursts larger than the queue without waiting
    // between submissions, then collects the futures. How many of them are
    // shed depends on timing, so only the outcome accounting is asserted
    // (QueueOverflowShedsTyped pins shedding deterministically).
    constexpr int kBursts = 2;
    constexpr int kBurstSize = kMaxQueue + 2;
    std::atomic<int> outcome_counts[4] = {};
    auto random_request = [](std::mt19937& rng) {
      switch (rng() % 3) {
        case 0:
          return MakeDeterminedRequest(2 + rng() % 3);
        case 1:
          return MakeUndeterminedRequest(2 + rng() % 2);
        default:
          return MakeAdversarialRequest(/*deadline_ms=*/20);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(17 * (iter + 1) + c);
        for (int i = 0; i < kPerClient; ++i) {
          ServeResponse resp = service.Call(random_request(rng));
          ++outcome_counts[static_cast<int>(resp.outcome)];
        }
      });
    }
    clients.emplace_back([&] {
      std::mt19937 rng(17 * (iter + 1) + kClients);
      for (int burst = 0; burst < kBursts; ++burst) {
        std::vector<std::future<ServeResponse>> futures;
        for (int i = 0; i < kBurstSize; ++i) {
          futures.push_back(service.Submit(random_request(rng)));
        }
        for (std::future<ServeResponse>& f : futures) {
          ++outcome_counts[static_cast<int>(f.get().outcome)];
        }
      }
    });
    for (std::thread& t : clients) t.join();
    service.Shutdown();

    const int total = outcome_counts[0] + outcome_counts[1] +
                      outcome_counts[2] + outcome_counts[3];
    // Exactly one outcome each.
    EXPECT_EQ(total, kClients * kPerClient + kBursts * kBurstSize);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(total));
    EXPECT_EQ(stats.answered + stats.degraded + stats.shed + stats.declined,
              stats.submitted);  // Counters add up too.
  }
}

// --- Fault injection --------------------------------------------------------

TEST_F(ServeTest, AdmissionFaultIsTypedDecline) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  DeterminacyService service;
  failpoint::Arm("serve/admit", {failpoint::Action::kBadAlloc, 1.0, 1});

  auto faulted = service.Submit(MakeDeterminedRequest(3));
  ASSERT_EQ(faulted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ServeResponse resp = faulted.get();
  EXPECT_EQ(resp.outcome, ServeOutcome::kDeclined);
  EXPECT_EQ(resp.status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(resp.status.kernel, "serve/admit");

  failpoint::DisarmAll();
  EXPECT_EQ(service.Call(MakeDeterminedRequest(3)).outcome,
            ServeOutcome::kAnswered);
}

TEST_F(ServeTest, DispatchFaultRetriesWithBackoff) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  ServiceOptions opts;
  opts.max_concurrent = 1;  // One runner → deterministic hit ordering.
  DeterminacyService service(opts);
  // Fire exactly once: the first attempt faults, the retry answers.
  failpoint::Arm("serve/dispatch", {failpoint::Action::kBadAlloc, 1.0, 1});

  ServeRequest req = MakeUndeterminedRequest(3);
  const DeterminacyResult direct =
      DecideBagDeterminacy(req.views, req.query, req.options);
  ServeResponse resp = service.Call(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kAnswered);
  EXPECT_EQ(resp.attempts, 2u);
  EXPECT_EQ(resp.retries, 1u);
  ASSERT_TRUE(resp.result.has_value());
  EXPECT_EQ(resp.result->Summary(), direct.Summary());  // Retry is clean.
  EXPECT_EQ(service.stats().retries, 1u);
}

TEST_F(ServeTest, PersistentDispatchFaultExhaustsRetriesThenDeclines) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_retries = 2;
  DeterminacyService service(opts);
  failpoint::Arm("serve/dispatch", {failpoint::Action::kBadAlloc});

  ServeRequest req = MakeUndeterminedRequest(3);
  req.options.want_counterexample = false;  // No tier left to degrade to.
  ServeResponse resp = service.Call(req);
  EXPECT_EQ(resp.outcome, ServeOutcome::kDeclined);
  EXPECT_EQ(resp.status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(resp.status.kernel, "serve/dispatch");
  EXPECT_EQ(resp.attempts, 3u);  // Initial + max_retries.
  EXPECT_EQ(resp.retries, 2u);

  // Disarm → the same service serves the same request, bit-identical to a
  // direct run: the fault never corrupted the persistent pool/cache.
  failpoint::DisarmAll();
  const DeterminacyResult direct =
      DecideBagDeterminacy(req.views, req.query, req.options);
  ServeResponse rerun = service.Call(req);
  ASSERT_EQ(rerun.outcome, ServeOutcome::kAnswered);
  EXPECT_EQ(rerun.result->Summary(), direct.Summary());
}

TEST_F(ServeTest, KernelCancelMidRequestLeavesServiceUsable) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  const int iters = DiffIters();
  for (int iter = 0; iter < iters; ++iter) {
    ServiceOptions opts;
    opts.max_concurrent = 1;
    DeterminacyService service(opts);
    // Cancel from deep inside the hom-count DP mid-request: cooperative
    // cancellation is deterministic, never retried, and the unwind leaves
    // the generation's pool/cache consistent.
    failpoint::Arm("hom/dp_step",
                   {failpoint::Action::kCancel, 1.0,
                    /*hit_on=*/static_cast<std::uint64_t>(5 + iter)});
    ServeRequest req = MakeUndeterminedRequest(3);
    ServeResponse cancelled = service.Call(req);
    EXPECT_EQ(cancelled.outcome, ServeOutcome::kDeclined);
    EXPECT_EQ(cancelled.status.code, ExecCode::kCancelled);
    EXPECT_EQ(cancelled.retries, 0u);

    failpoint::DisarmAll();
    const DeterminacyResult direct =
        DecideBagDeterminacy(req.views, req.query, req.options);
    ServeResponse rerun = service.Call(req);
    ASSERT_EQ(rerun.outcome, ServeOutcome::kAnswered);
    EXPECT_EQ(rerun.result->Summary(), direct.Summary());  // Bit-identical.
  }
}

TEST_F(ServeTest, CounterexampleTierFaultDegradesToVerdictOnly) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_retries = 0;  // Isolate the degrade path from the retry path.
  DeterminacyService service(opts);
  // bad_alloc on the 4th pool intern: the analysis creates exactly the 3
  // component classes, so hit 4 is the counterexample phase's candidate
  // intern — the full decision faults there, and the verdict-only tier
  // (warm pool, no new interns) completes.
  failpoint::Arm("pool/intern", {failpoint::Action::kBadAlloc, 1.0,
                                 /*hit_on=*/4});

  ServeResponse resp = service.Call(MakeUndeterminedRequest(3));
  EXPECT_EQ(resp.outcome, ServeOutcome::kDegraded);
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.attempts, 2u);
  ASSERT_TRUE(resp.result.has_value());
  EXPECT_FALSE(resp.result->determined);
  EXPECT_FALSE(resp.result->counterexample.has_value());
}

// --- Runner-thread count ----------------------------------------------------

TEST_F(ServeTest, DefaultThreadCountReadsEnvThenHardware) {
  const char* saved = std::getenv("BAGDET_NUM_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hardware = hw == 0 ? 1 : hw;
  ASSERT_EQ(::setenv("BAGDET_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  ASSERT_EQ(::setenv("BAGDET_NUM_THREADS", "1024", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), 1024u);
  // Anything but a whole number in [1, 1024] falls back to the hardware:
  // a value too large to start that many runners, and one past the range
  // of long, included. The prefix trap's numeric prefix differs from the
  // hardware count, so a parser that stops at the prefix cannot pass by
  // coincidence.
  const std::string prefix_trap = std::to_string(hardware + 1) + "x";
  for (const std::string& bad :
       {std::string("0"), std::string("-2"), std::string("abc"),
        std::string("4x"), std::string(""), prefix_trap,
        std::string("1025"), std::string("1000000"),
        std::string("99999999999999999999")}) {
    ASSERT_EQ(::setenv("BAGDET_NUM_THREADS", bad.c_str(), 1), 0);
    EXPECT_EQ(DefaultThreadCount(), hardware) << "'" << bad << "'";
  }
  {
    // The oversized value still yields a working default service.
    ASSERT_EQ(::setenv("BAGDET_NUM_THREADS", "1000000", 1), 0);
    DeterminacyService service;
    EXPECT_EQ(service.Call(MakeDeterminedRequest(3)).outcome,
              ServeOutcome::kAnswered);
  }
  ::unsetenv("BAGDET_NUM_THREADS");
  EXPECT_EQ(DefaultThreadCount(), hardware);
  if (saved != nullptr) {
    ::setenv("BAGDET_NUM_THREADS", saved_value.c_str(), 1);
  }
}

// --- StructurePool persistent-growth contract -------------------------------

TEST_F(ServeTest, PoolGrowsAcrossBlocksWithoutInvalidatingRefs) {
  // ~1500 classes over 8 shards fill every shard's 64-slot first block and
  // spill into the next; concurrent interns + reads must never observe a
  // moved entry (the directory only ever publishes new blocks).
  auto pool = std::make_shared<StructurePool>();
  auto schema = GraphSchema();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 375;
  constexpr Element kPathLength = 12;

  std::vector<std::vector<StructureRef>> refs(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct classes: a rigid directed path with loops on the bit
        // subset of its index.
        const int index = t * kPerThread + i;
        Structure s(schema);
        for (Element v = 0; v + 1 < kPathLength; ++v) s.AddFact(0, {v, v + 1});
        for (Element v = 0; v < kPathLength; ++v) {
          if (index & (1 << v)) s.AddFact(0, {v, v});
        }
        StructureRef ref = pool->Intern(s);
        refs[t].push_back(ref);
        // Read-back under concurrent growth.
        ASSERT_TRUE(pool->Contains(ref));
        ASSERT_EQ(pool->At(ref).DomainSize(), kPathLength);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // All refs remain valid and re-interning is a pure hash probe.
  std::vector<StructureRef> max_local(StructurePool::kNumShards, 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const StructureRef ref = refs[t][i];
      const Structure& rep = pool->At(ref);
      EXPECT_EQ(pool->Intern(rep), ref);
      StructureRef& local = max_local[ref % StructurePool::kNumShards];
      local = std::max<StructureRef>(local, ref / StructurePool::kNumShards);
    }
  }
  EXPECT_EQ(pool->size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_GT(pool->ApproxBytes(), 0u);
  // Every shard crossed from its first block (local indices 0..63) into
  // the second.
  for (StructureRef local : max_local) EXPECT_GE(local, 64u);
}

}  // namespace
}  // namespace bagdet
