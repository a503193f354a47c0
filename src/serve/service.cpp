#include "serve/service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/failpoint.h"

namespace bagdet {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A trip that retrying the identical request could plausibly clear: a
/// native or injected std::bad_alloc. Budget/deadline/cancel trips are
/// deterministic for the request and never retried at the same tier.
bool IsTransient(const ExecStatus& status) {
  return status.code == ExecCode::kResourceExhausted &&
         (status.kernel == "alloc" || status.kernel == "serve/dispatch");
}

}  // namespace

std::size_t DefaultThreadCount() {
  // Precedence: BAGDET_NUM_THREADS, then the hardware. Anything but a whole
  // number in [1, 1024] (an out-of-range one included) counts as unset.
  if (const char* env = std::getenv("BAGDET_NUM_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && value > 0 &&
        value <= 1024) {
      return static_cast<std::size_t>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kAnswered:
      return "answered";
    case ServeOutcome::kDegraded:
      return "degraded";
    case ServeOutcome::kShed:
      return "shed";
    case ServeOutcome::kDeclined:
      return "declined";
  }
  return "unknown";
}

DeterminacyService::DeterminacyService(ServiceOptions options)
    : options_(options) {
  if (options_.max_concurrent == 0) options_.max_concurrent =
      DefaultThreadCount();
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  cache_ = std::make_shared<HomCache>();
  try {
    runners_.reserve(options_.max_concurrent);
    for (std::size_t i = 0; i < options_.max_concurrent; ++i) {
      runners_.emplace_back(&DeterminacyService::RunnerLoop, this);
    }
  } catch (...) {
    // No destructor runs for a half-built object, and destroying a
    // joinable std::thread terminates the process: stop and join the
    // runners that did start, then report the failure.
    Shutdown();
    throw;
  }
}

DeterminacyService::~DeterminacyService() { Shutdown(); }

void DeterminacyService::MaybeRotateLocked() {
  const StructurePool& pool = cache_->pool();
  if (pool.size() <= options_.pool_max_classes &&
      pool.ApproxBytes() + cache_->ApproxBytes() <= options_.pool_max_bytes) {
    return;
  }
  // Fold the retiring generation's traffic into the carried totals; the
  // generation itself stays alive through the shared_ptrs of whatever
  // requests and results still reference it.
  const HomCache::Stats s = cache_->stats();
  carried_hits_ += s.hits;
  carried_misses_ += s.misses;
  carried_evictions_ += s.entries;
  cache_ = std::make_shared<HomCache>();  // Fresh pool + cache.
  ++generation_;
  ++rotations_;
}

double DeterminacyService::RetryAfterMsLocked() const {
  // Expected time until a slot frees for one more request: backlog depth
  // over service width, paced by the measured per-request time (1ms floor
  // before any request completes).
  const double per_request = ewma_exec_ms_ > 0.0 ? ewma_exec_ms_ : 1.0;
  const double backlog =
      static_cast<double>(queue_.size() + executing_ + 1);
  return std::max(
      1.0, per_request * backlog / static_cast<double>(options_.max_concurrent));
}

std::future<ServeResponse> DeterminacyService::Submit(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  ServeResponse rejected;
  try {
    BAGDET_FAILPOINT("serve/admit");
  } catch (const std::bad_alloc&) {
    // Admission-path OOM: the request was never enqueued, so the typed
    // decline is produced synchronously and nothing retries it.
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    ++declined_;
    rejected.outcome = ServeOutcome::kDeclined;
    rejected.status =
        ExecStatus{ExecCode::kResourceExhausted, "serve/admit", 0, 0.0};
    rejected.message = "admission fault";
    promise.set_value(std::move(rejected));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    if (!shutdown_ && queue_.size() < options_.max_queue) {
      ++admitted_;
      auto job = std::make_unique<Job>();
      job->request = std::move(request);
      job->promise = std::move(promise);
      job->enqueued = std::chrono::steady_clock::now();
      queue_.push_back(std::move(job));
      work_cv_.notify_one();
      return future;
    }
    ++shed_;
    rejected.outcome = ServeOutcome::kShed;
    rejected.status.code = ExecCode::kOverloaded;
    rejected.status.kernel = shutdown_ ? "serve/shutdown" : "serve/admit";
    rejected.retry_after_ms = shutdown_ ? 0.0 : RetryAfterMsLocked();
  }
  promise.set_value(std::move(rejected));
  return future;
}

ServeResponse DeterminacyService::Call(ServeRequest request) {
  return Submit(std::move(request)).get();
}

ServeResponse DeterminacyService::Execute(
    const ServeRequest& request, const std::shared_ptr<HomCache>& cache,
    std::uint64_t generation) {
  ServeResponse resp;
  resp.generation = generation;
  const bool want_cx = request.options.want_counterexample;
  bool tier_degraded = false;
  const auto t0 = std::chrono::steady_clock::now();

  for (;;) {
    ++resp.attempts;
    // Each attempt gets a fresh context: per-request limits govern one
    // execution, so a degraded tier or a post-backoff retry restarts the
    // deadline clock instead of inheriting an already-spent budget.
    ExecContext exec(request.limits);
    DeterminacyOptions opts = request.options;
    opts.shared_hom_cache = cache;
    opts.want_counterexample = want_cx && !tier_degraded;

    ExecStatus status;
    std::optional<DeterminacyResult> result;
    try {
      BAGDET_FAILPOINT("serve/dispatch");
      // Copies in: a faulted attempt must leave the request intact for
      // the retry, so the views/query are never moved from.
      GovernedDecision decision = DecideBagDeterminacyGoverned(
          request.views, request.query, opts, exec);
      status = std::move(decision.status);
      result = std::move(decision.result);
    } catch (const std::bad_alloc&) {
      status = ExecStatus{ExecCode::kResourceExhausted, "serve/dispatch", 0,
                          MsSince(t0)};
    } catch (const std::invalid_argument& e) {
      resp.outcome = ServeOutcome::kDeclined;
      resp.status = ExecStatus{ExecCode::kInvalidArgument, "serve/validate",
                               0, MsSince(t0)};
      resp.message = e.what();
      break;
    }

    if (status.ok()) {
      // The decision completed. Distinguisher bound exhaustion surfaces
      // inside the result as a non-ok exec_status with a valid verdict —
      // the built-in degraded answer.
      const bool distinguisher_exhausted =
          result->exec_status.code == ExecCode::kResourceExhausted &&
          result->exec_status.kernel == "distinguisher";
      if (tier_degraded && want_cx && !result->determined) {
        // Verdict delivered without the counterexample the client asked
        // for (a determined verdict never carries one, so that case is a
        // full answer despite the dropped tier).
        resp.outcome = ServeOutcome::kDegraded;
        resp.degraded = true;
      } else if (distinguisher_exhausted) {
        resp.outcome = ServeOutcome::kDegraded;
        resp.degraded = true;
        resp.status = result->exec_status;
      } else {
        resp.outcome = ServeOutcome::kAnswered;
        resp.degraded = false;
        resp.status = ExecStatus{};
      }
      resp.result = std::move(result);
      break;
    }

    if (IsTransient(status) && resp.retries < options_.max_retries) {
      ++resp.retries;
      const std::uint32_t shift =
          std::min<std::uint32_t>(resp.retries - 1, 6);  // Cap at 64 ms.
      std::this_thread::sleep_for(std::chrono::milliseconds(1u << shift));
      continue;
    }

    const bool can_degrade =
        !tier_degraded && want_cx && options_.allow_degraded &&
        (status.code == ExecCode::kDeadlineExceeded ||
         status.code == ExecCode::kResourceExhausted);
    if (can_degrade) {
      // The full decision tripped its limits; drop the counterexample
      // tier — the verdict is the cheap half — and record why.
      tier_degraded = true;
      resp.status = std::move(status);
      continue;
    }

    resp.outcome = ServeOutcome::kDeclined;
    resp.status = std::move(status);
    break;
  }

  resp.exec_ms = MsSince(t0);
  return resp;
}

void DeterminacyService::RunnerLoop() {
  for (;;) {
    std::unique_ptr<Job> job;
    std::shared_ptr<HomCache> cache;
    std::uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return stop_runners_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_runners_ and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
      cache = cache_;  // Snapshot: this request's generation, rotation-safe.
      generation = generation_;
    }

    const double queue_ms = MsSince(job->enqueued);
    ServeResponse resp = Execute(job->request, cache, generation);
    resp.queue_ms = queue_ms;
    cache.reset();  // The response may be the last holder now.

    {
      std::lock_guard<std::mutex> lock(mu_);
      switch (resp.outcome) {
        case ServeOutcome::kAnswered:
          ++answered_;
          break;
        case ServeOutcome::kDegraded:
          ++degraded_;
          break;
        case ServeOutcome::kDeclined:
          ++declined_;
          break;
        case ServeOutcome::kShed:  // Unreachable for admitted requests.
          ++shed_;
          break;
      }
      retries_ += resp.retries;
      ewma_exec_ms_ = ewma_exec_ms_ == 0.0
                          ? resp.exec_ms
                          : 0.8 * ewma_exec_ms_ + 0.2 * resp.exec_ms;
      MaybeRotateLocked();
    }

    job->promise.set_value(std::move(resp));

    {
      std::lock_guard<std::mutex> lock(mu_);
      --executing_;
      // Drain order: the promise above is already fulfilled, so when
      // Shutdown wakes on quiescence every accepted future is ready.
      if (queue_.empty() && executing_ == 0) drained_cv_.notify_all();
    }
  }
}

void DeterminacyService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;  // Later Submits shed with "serve/shutdown".
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && executing_ == 0; });
    stop_runners_ = true;
  }
  work_cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& t : runners_) {
    if (t.joinable()) t.join();
  }
}

ServiceStats DeterminacyService::stats() const {
  ServiceStats s;
  std::lock_guard<std::mutex> lock(mu_);
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.answered = answered_;
  s.degraded = degraded_;
  s.shed = shed_;
  s.declined = declined_;
  s.retries = retries_;
  s.rotations = rotations_;
  s.generation = generation_;
  const HomCache::Stats cs = cache_->stats();
  s.cache_hits = carried_hits_ + cs.hits;
  s.cache_misses = carried_misses_ + cs.misses;
  s.cache_evictions = carried_evictions_;
  s.pool_classes = cache_->pool().size();
  s.pool_bytes = cache_->pool().ApproxBytes();
  s.queue_depth = queue_.size();
  s.executing = executing_;
  s.ewma_exec_ms = ewma_exec_ms_;
  return s;
}

std::shared_ptr<HomCache> DeterminacyService::generation_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_;
}

}  // namespace bagdet
