// bagdet: governed execution — deadlines, cooperative cancellation, and
// byte-accounted memory budgets for the determinacy pipeline.
//
// The serving story (ROADMAP: always-on determinacy service) needs every
// unbounded kernel — the hom-count DP, the canonical search, the synthesis
// walk, the Hilbert frontier — to stop cleanly when a request exceeds its
// limits, report *why* and *where*, and leave shared state (StructurePool,
// HomCache) consistent. ExecContext is that contract:
//
//   ExecContext exec(ExecLimits{/*deadline_ms=*/50, /*max_memory_bytes=*/0});
//   GovernedDecision d = DecideBagDeterminacyGoverned(views, q, {}, exec);
//   if (!d.status.ok()) { /* d.status.code says kDeadlineExceeded/... */ }
//
// Mechanics. The current context is carried in a thread-local slot,
// installed by ExecScope on the thread that runs the decision (no kernel
// fans out to other threads). Kernels call the free function
// ExecCheckPoint("kernel") at loop boundaries. The ungoverned fast path is a TLS load plus a null
// check; the governed fast path additionally decrements a countdown, and
// only when it hits zero reads the clock. The countdown stride adapts so
// the clock is consulted roughly once per millisecond regardless of how
// hot the loop is, which bounds deadline overshoot by about the sampling
// interval. Memory is accounted explicitly: kernels Charge()/Release()
// bytes they materialize (ScopedCharge ties the release to scope exit),
// and a charge that pushes the total past the budget trips the context.
//
// A tripped context throws ExecInterrupted from the checkpoint. The
// exception unwinds through the kernels like any other and is converted
// back into a typed ExecStatus at the governed API boundary
// (RunGoverned). When no limit trips, governed runs are bit-identical to
// ungoverned ones: the checkpoints have no side effects.

#ifndef BAGDET_UTIL_EXEC_CONTEXT_H_
#define BAGDET_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace bagdet {

/// Why a governed computation stopped. kOverloaded and kInvalidArgument are
/// never produced by ExecContext itself: they are the serving layer's typed
/// declines (admission-queue shedding and malformed-request rejection,
/// src/serve/service.h), sharing this enum so one status type describes
/// every request outcome end to end.
enum class ExecCode {
  kOk = 0,
  kDeadlineExceeded = 1,
  kCancelled = 2,
  kResourceExhausted = 3,
  kOverloaded = 4,
  kInvalidArgument = 5,
};

/// Stable lowercase name ("ok", "deadline_exceeded", ...).
const char* ExecCodeName(ExecCode code);

/// Outcome of a governed computation: which limit tripped (if any), the
/// kernel that hit it, and the charged bytes / elapsed time at trip time.
struct ExecStatus {
  ExecCode code = ExecCode::kOk;
  std::string kernel;           ///< Checkpoint site that tripped ("" if ok).
  std::uint64_t bytes = 0;      ///< Bytes charged at trip time.
  double elapsed_ms = 0.0;      ///< Elapsed wall time at trip time.

  bool ok() const { return code == ExecCode::kOk; }
  std::string ToString() const;
};

/// Request limits. Zero means "no limit" for either knob.
struct ExecLimits {
  std::uint64_t deadline_ms = 0;        ///< Wall-clock budget from creation.
  std::uint64_t max_memory_bytes = 0;   ///< Charged-byte budget.
};

/// Internal unwind signal thrown by checkpoints of a tripped context and
/// converted back into an ExecStatus at the governed API boundary. Kernels
/// must let it pass (no catch(...) that swallows it).
class ExecInterrupted : public std::exception {
 public:
  explicit ExecInterrupted(ExecStatus status)
      : status_(std::move(status)), message_(status_.ToString()) {}
  const ExecStatus& status() const { return status_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  ExecStatus status_;
  std::string message_;
};

class ExecContext;

namespace exec_internal {

/// Per-thread checkpoint state: the installed context plus the adaptive
/// sampling countdown. Constant-initialized so the TLS access compiles to
/// a plain load (no guard).
struct ExecTlsState {
  ExecContext* ctx = nullptr;
  std::uint32_t countdown = 0;  ///< Checkpoints left before a clock read.
  std::uint32_t stride = 1;     ///< Current sampling stride.
  std::chrono::steady_clock::time_point last_sample{};
};

inline thread_local ExecTlsState g_exec_tls;

}  // namespace exec_internal

/// One governed request: deadline + cancellation token + memory budget.
/// Thread-safe: many workers may checkpoint/charge against one context.
/// The first limit to trip wins and is what status() reports.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() : ExecContext(ExecLimits{}) {}
  explicit ExecContext(const ExecLimits& limits)
      : limits_(limits),
        start_(Clock::now()),
        deadline_armed_(limits.deadline_ms != 0),
        deadline_(start_ + std::chrono::milliseconds(limits.deadline_ms)) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Cooperative cancellation: the next checkpoint on any thread running
  /// under this context trips kCancelled. Safe from any thread.
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Accounts `bytes` against the memory budget; trips kResourceExhausted
  /// (throwing ExecInterrupted) when the running total exceeds it. The
  /// bytes stay charged even on a trip so status() reports the footprint.
  void Charge(std::uint64_t bytes, const char* kernel) {
    const std::uint64_t total =
        bytes_charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limits_.max_memory_bytes != 0 && total > limits_.max_memory_bytes) {
      Trip(ExecCode::kResourceExhausted, kernel);
    }
  }
  void Release(std::uint64_t bytes) {
    bytes_charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  std::uint64_t bytes_charged() const {
    return bytes_charged_.load(std::memory_order_relaxed);
  }

  /// Forced check (always reads the clock). For coarse boundaries, where a
  /// checkpoint is cheap relative to the work and prompt trips are wanted.
  void CheckNow(const char* kernel);

  /// Sampled check driven by ExecCheckPoint's countdown; adapts the stride
  /// toward ~1ms between clock reads. Public only for ExecCheckPoint.
  void SampledCheck(const char* kernel, exec_internal::ExecTlsState* tls);

  /// True once any limit tripped (or MarkTripped was called).
  bool tripped() const {
    return trip_code_.load(std::memory_order_acquire) != 0;
  }

  /// Records a trip without throwing — used at the governed boundary to
  /// fold a native std::bad_alloc into kResourceExhausted. First trip wins.
  void MarkTripped(ExecCode code, const char* kernel);

  /// Current status: the recorded trip, or kOk with live bytes/elapsed.
  ExecStatus status() const;

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  const ExecLimits& limits() const { return limits_; }

 private:
  /// Records the trip (first one wins) and throws ExecInterrupted.
  [[noreturn]] void Trip(ExecCode code, const char* kernel);

  const ExecLimits limits_;
  const Clock::time_point start_;
  const bool deadline_armed_;
  const Clock::time_point deadline_;

  std::atomic<bool> cancel_{false};
  std::atomic<std::uint64_t> bytes_charged_{0};

  std::atomic<int> trip_code_{0};  // ExecCode of the first trip; 0 = none.
  mutable std::mutex trip_mu_;     // Guards the trip record below.
  const char* trip_kernel_ = "";
  std::uint64_t trip_bytes_ = 0;
  double trip_elapsed_ms_ = 0.0;
};

/// The context governing the current thread, or nullptr when ungoverned.
inline ExecContext* CurrentExecContext() {
  return exec_internal::g_exec_tls.ctx;
}

/// Checkpoint at a kernel loop boundary. Ungoverned: a TLS load and a null
/// check. Governed: observes cancellation on every call (one acquire load,
/// so a RequestCancel lands at the very next checkpoint regardless of the
/// sampling stride), then decrements the sampling countdown and consults
/// the clock only when it expires; throws ExecInterrupted once the
/// context's deadline passes, cancellation is requested, or any limit
/// already tripped elsewhere. `kernel` must be a string literal (stored by
/// pointer in the trip record).
inline void ExecCheckPoint(const char* kernel) {
  exec_internal::ExecTlsState& tls = exec_internal::g_exec_tls;
  if (tls.ctx == nullptr) return;
  if (tls.ctx->cancel_requested()) tls.ctx->CheckNow(kernel);
  if (tls.countdown != 0) {
    --tls.countdown;
    return;
  }
  tls.ctx->SampledCheck(kernel, &tls);
}

/// RAII: installs `ctx` as the current thread's context (nullptr is valid
/// and means "ungoverned"), restoring the previous state on destruction.
class ExecScope {
 public:
  explicit ExecScope(ExecContext* ctx) : saved_(exec_internal::g_exec_tls) {
    exec_internal::ExecTlsState& tls = exec_internal::g_exec_tls;
    tls.ctx = ctx;
    tls.countdown = 0;  // First checkpoint under the new scope samples.
    tls.stride = 1;
    tls.last_sample = {};
  }
  ~ExecScope() { exec_internal::g_exec_tls = saved_; }

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  exec_internal::ExecTlsState saved_;
};

/// RAII for transient kernel memory (DP tables, limb arena blocks, Hilbert
/// grids): Update(total) charges growth / releases shrinkage against the
/// current context, and the destructor releases whatever is still held —
/// including during an ExecInterrupted unwind, so a tripped request does
/// not leave phantom bytes charged. No-op when ungoverned.
class ScopedCharge {
 public:
  explicit ScopedCharge(const char* kernel)
      : ctx_(CurrentExecContext()), kernel_(kernel) {}
  ~ScopedCharge() {
    if (ctx_ != nullptr && bytes_ != 0) ctx_->Release(bytes_);
  }

  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Sets the held total to `bytes`. A growing update may throw
  /// ExecInterrupted (budget exceeded); the new total is recorded first so
  /// the destructor releases exactly what was charged.
  void Update(std::uint64_t bytes) {
    if (ctx_ == nullptr || bytes == bytes_) return;
    if (bytes > bytes_) {
      const std::uint64_t delta = bytes - bytes_;
      bytes_ = bytes;
      ctx_->Charge(delta, kernel_);
    } else {
      ctx_->Release(bytes_ - bytes);
      bytes_ = bytes;
    }
  }

  std::uint64_t held() const { return bytes_; }

 private:
  ExecContext* ctx_;
  const char* kernel_;
  std::uint64_t bytes_ = 0;
};

/// Boundary adapter: runs `fn` under `ctx`, converting an ExecInterrupted
/// unwind (or a native std::bad_alloc) into a typed status. Returns fn()'s
/// value and kOk, or nullopt with the trip status.
template <typename Fn>
auto RunGoverned(ExecContext& ctx, ExecStatus* status, Fn&& fn)
    -> std::optional<decltype(fn())> {
  ExecScope scope(&ctx);
  try {
    auto value = std::forward<Fn>(fn)();
    *status = ExecStatus{};
    return value;
  } catch (const ExecInterrupted& interrupted) {
    *status = interrupted.status();
    return std::nullopt;
  } catch (const std::bad_alloc&) {
    ctx.MarkTripped(ExecCode::kResourceExhausted, "alloc");
    *status = ctx.status();
    return std::nullopt;
  }
}

}  // namespace bagdet

#endif  // BAGDET_UTIL_EXEC_CONTEXT_H_
