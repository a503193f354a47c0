// bagdet: resilient always-on determinacy service.
//
// Everything below core/determinacy.h optimizes one decision; a deployment
// answers a *stream* of decide/containment/counterexample requests over
// overlapping view sets under heavy traffic. DeterminacyService is the
// serving layer that turns the governed-execution primitives (PR 6) and
// the concurrent pipeline (PR 4/7) into a system that stays up when
// requests are oversized, malformed, bursty, or faulted:
//
//   admission → execute → (retry | degrade) → respond, or shed.
//
//   * Admission: a bounded queue. When it is full — or the service is
//     shutting down — a request is shed *synchronously* with a typed
//     kOverloaded status and a retry-after hint derived from the measured
//     service rate, instead of queueing without bound. Accepted requests
//     always terminate in exactly one typed outcome.
//   * Execution: each request runs as a governed decision
//     (DecideBagDeterminacyGoverned) under its own per-request ExecLimits
//     on one of a fixed set of service runner threads. One thread runs
//     one decision start to finish; concurrency comes from running many
//     requests at once, never from fanning out inside one. A no-limits
//     single request through the service is bit-identical to a direct
//     DecideBagDeterminacy call.
//   * Retry: transiently-declined work — a native or failpoint-injected
//     std::bad_alloc ("alloc" / "serve/dispatch" kernels) — retries with
//     bounded exponential backoff. Deterministic declines (a memory budget
//     the same request would trip again, a passed deadline, cancellation)
//     never retry at the same tier.
//   * Degradation: when the full decision trips its limits and a
//     counterexample was requested, the request drops one tier and re-runs
//     decide-without-counterexample — the verdict is the cheap half; the
//     certificate is the exponentially larger one. A distinguisher that
//     exhausts its bounds (DistinguisherOutcome::kBoundsExhausted) arrives
//     as a built-in degraded answer: valid verdict, typed explanation for
//     the missing certificate. Only when every tier declines is the
//     request answered with a typed kDeclined.
//   * Shutdown: deterministic drain. Shutdown() closes admission (new
//     submissions shed with kernel "serve/shutdown") and blocks until
//     every accepted request has produced its outcome.
//
// Persistent state. The service owns a StructurePool (constructed with a
// serving-sized slot directory) and a sharded HomCache shared by every
// request — overlapping view sets hit warm interned classes and memoized
// counts across the stream. Retention is generation-based: once the pool
// exceeds its class/byte budgets the service retires the whole generation
// and starts a fresh pool + cache. In-flight requests (and returned
// results, whose InstanceAnalysis holds shared_ptrs) keep their generation
// alive, so rotation can never invalidate a StructureRef anyone still
// holds; the retired generation is freed when its last holder lets go.
//
// Failpoint sites (util/failpoint.h): "serve/admit" fires in Submit before
// a request is enqueued, "serve/dispatch" fires on the runner thread
// before each governed attempt — both convert injected faults into typed
// outcomes instead of escaping exceptions.

#ifndef BAGDET_SERVE_SERVICE_H_
#define BAGDET_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/determinacy.h"
#include "hom/hom_cache.h"
#include "query/cq.h"
#include "structs/pool.h"
#include "util/exec_context.h"

namespace bagdet {

/// How a request through the service terminated. Every submitted request
/// ends in exactly one of these.
enum class ServeOutcome {
  kAnswered = 0,  ///< Full decision, everything the client asked for.
  kDegraded = 1,  ///< Valid verdict, but the counterexample was dropped
                  ///< (tier degradation or distinguisher bound exhaustion).
  kShed = 2,      ///< Not admitted: queue full or shutting down.
  kDeclined = 3,  ///< Admitted but no tier could complete within limits,
                  ///< or the request was malformed.
};

/// Stable lowercase name ("answered", "degraded", "shed", "declined").
const char* ServeOutcomeName(ServeOutcome outcome);

/// One decision request. `limits` governs each execution attempt
/// independently (a retry or degraded tier starts a fresh ExecContext).
/// `options.want_counterexample` and `options.distinguisher` pass through;
/// `options.shared_hom_cache` is overridden by the service (the fleet-wide
/// cache belongs to the service, not to one request).
struct ServeRequest {
  std::vector<ConjunctiveQuery> views;
  ConjunctiveQuery query;
  ExecLimits limits;
  DeterminacyOptions options;
};

/// Typed outcome of one request.
struct ServeResponse {
  ServeOutcome outcome = ServeOutcome::kDeclined;
  /// Why: ok for kAnswered; the degrading/declining trip otherwise (for a
  /// degraded distinguisher-exhaustion answer, the in-result status).
  ExecStatus status;
  /// Engaged for kAnswered and kDegraded; the verdict is always valid.
  std::optional<DeterminacyResult> result;
  std::string message;          ///< Diagnostic for malformed declines.
  std::uint32_t attempts = 0;   ///< Governed executions run (>= 1 if admitted).
  std::uint32_t retries = 0;    ///< Transient-fault retries among them.
  bool degraded = false;        ///< Counterexample tier was dropped.
  double retry_after_ms = 0.0;  ///< Backpressure hint; set when shed.
  double queue_ms = 0.0;        ///< Admission-to-dispatch wait.
  double exec_ms = 0.0;         ///< Total execution wall time (all attempts).
  std::uint64_t generation = 0; ///< Pool/cache generation that served this.
};

/// Runner-thread count for a service whose `max_concurrent` is 0:
/// BAGDET_NUM_THREADS when it is a whole number in [1, 1024], else
/// std::thread::hardware_concurrency() (minimum 1).
std::size_t DefaultThreadCount();

struct ServiceOptions {
  /// Concurrent request executions (runner threads). 0 = DefaultThreadCount().
  std::size_t max_concurrent = 0;
  /// Bound on *waiting* requests (beyond the ones executing). Submissions
  /// past it shed. Clamped to >= 1.
  std::size_t max_queue = 256;
  /// Bounded retry budget per request for transient faults. Retry r
  /// waits 1 ms << (r - 1) first, capped at 64 ms.
  std::uint32_t max_retries = 2;
  /// Permit the decide-without-counterexample degradation tier.
  bool allow_degraded = true;
  /// Generation rotation thresholds for the persistent pool: retire the
  /// generation once it retains more classes / projected bytes than this.
  std::size_t pool_max_classes = std::size_t{1} << 16;
  std::uint64_t pool_max_bytes = std::uint64_t{256} << 20;
  /// Slot-directory first-block hint for the persistent pool.
  std::size_t pool_first_block = 4096;
};

/// Monotonic service counters plus a live snapshot. Cache traffic is
/// accumulated across generation rotations.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t declined = 0;
  std::uint64_t retries = 0;
  std::uint64_t rotations = 0;
  std::uint64_t generation = 1;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t pool_classes = 0;   ///< Current generation.
  std::uint64_t pool_bytes = 0;     ///< Current generation.
  std::size_t queue_depth = 0;
  std::size_t executing = 0;
  double ewma_exec_ms = 0.0;        ///< Smoothed per-request execution time.
};

class DeterminacyService {
 public:
  /// Starts the runner threads. If one fails to start, the ones already
  /// running are stopped and joined before the error propagates.
  explicit DeterminacyService(ServiceOptions options = ServiceOptions());
  ~DeterminacyService();  ///< Drains: equivalent to Shutdown().

  DeterminacyService(const DeterminacyService&) = delete;
  DeterminacyService& operator=(const DeterminacyService&) = delete;

  /// Submits a request. Returns a future that is fulfilled with exactly
  /// one typed ServeResponse: immediately (already ready) when the request
  /// is shed, otherwise once a runner finishes it. Never throws for
  /// malformed or oversized requests — those become typed outcomes.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Synchronous convenience: Submit + wait.
  ServeResponse Call(ServeRequest request);

  /// Closes admission and blocks until every accepted request has its
  /// outcome, then stops the runner threads. Idempotent; safe to call
  /// concurrently with Submit (later submissions shed).
  void Shutdown();

  ServiceStats stats() const;

  /// Current generation's cache (test/bench introspection; the pointer is
  /// a snapshot — a rotation may retire it at any time).
  std::shared_ptr<HomCache> generation_cache() const;

 private:
  struct Job {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void RunnerLoop();
  /// Runs every tier/retry of one request; never throws.
  ServeResponse Execute(const ServeRequest& request,
                        const std::shared_ptr<HomCache>& cache,
                        std::uint64_t generation);
  /// Fresh pool + cache for a new generation.
  std::shared_ptr<HomCache> NewGenerationLocked() const;
  void MaybeRotateLocked();
  double RetryAfterMsLocked() const;

  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     ///< Runners wait for jobs here.
  std::condition_variable drained_cv_;  ///< Shutdown waits for quiescence.
  std::deque<std::unique_ptr<Job>> queue_;
  std::size_t executing_ = 0;
  bool shutdown_ = false;      ///< Admission closed.
  bool stop_runners_ = false;  ///< Queue drained; runners may exit.

  std::shared_ptr<HomCache> cache_;  ///< Current generation.
  std::uint64_t generation_ = 1;

  // Counters (guarded by mu_). Cache traffic of retired generations is
  // folded into carried_* at rotation time.
  std::uint64_t submitted_ = 0, admitted_ = 0, answered_ = 0, degraded_ = 0,
                shed_ = 0, declined_ = 0, retries_ = 0, rotations_ = 0;
  std::uint64_t carried_hits_ = 0, carried_misses_ = 0, carried_evictions_ = 0;
  double ewma_exec_ms_ = 0.0;

  std::mutex join_mu_;  ///< Serializes thread joins across Shutdown calls.
  std::vector<std::thread> runners_;
};

}  // namespace bagdet

#endif  // BAGDET_SERVE_SERVICE_H_
