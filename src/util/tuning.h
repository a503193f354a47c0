// bagdet: machine-calibrated dispatch tuning.
//
// Every fast-path gate in the pipeline — the hom-core order-search and
// domain-engage thresholds, thread-pool width, cache budgets — started
// life as a constant measured on the 1-core reference host (see
// BENCH_*.json). On any other machine those constants are dispatch
// decisions calibrated for someone else's hardware. TuningProfile gathers
// them into one struct the library reads as *defaults*: a profile file
// produced by the `bagdet_tune` calibration sweep (tools/bagdet_tune.cpp)
// re-points every gate at the crossovers measured on the machine that
// actually runs the workload, while explicit per-call options (DpOptions,
// ServiceOptions fields set by the caller) continue to override exactly
// as before.
//
// Correctness contract: every knob here is DISPATCH-ONLY. Each gated path
// is bit-identical to its alternative (the hom splits fold in fixed order,
// eviction only recomputes), so any profile — including an adversarial
// one that forces every gate on or off — changes wall-clock, never
// results. This is pinned by tests/tuning_test.cpp's extreme-profile
// differential.
//
// Profile format: plain text, one `key = value` per line, `#` comments
// and blank lines ignored, unknown keys and out-of-range values are typed
// errors (never silently dropped — a typo'd key would otherwise read as
// "calibrated"). All values are unsigned integers; `0` means "auto" for
// thread-count keys (use the global pool / hardware width) and is invalid
// for keys where auto makes no sense (documented per field below).
//
//   # bagdet tuning profile (generated by bagdet_tune on <fingerprint>)
//   order_search_max_atoms = 10
//   num_threads = 0
//
// Loading: the first Tuning() call loads the file named by the
// BAGDET_TUNING_PROFILE environment variable (when set; a load failure
// warns once on stderr and falls back to built-in defaults — a bad
// profile must never take the library down), or the built-in defaults.
// LoadTuningProfile / SetTuningProfile are the explicit API for embedders
// and tests. Reads are lock-free snapshot loads; a replaced profile's
// storage is intentionally retained so outstanding references stay valid.

#ifndef BAGDET_UTIL_TUNING_H_
#define BAGDET_UTIL_TUNING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace bagdet {

/// Every machine-dependent dispatch constant of the pipeline. Defaults are
/// the values measured on the 1-core reference host — loading no profile
/// reproduces pre-profile behavior bit-for-bit (it *is* the old constant
/// table).
struct TuningProfile {
  // --- hom core (hom/hom.h DpOptions defaults) -----------------------------
  /// DpOptions::order_search_max_atoms default (0 disables the exact
  /// subset-DP order search; hard engine cap is 16 atoms).
  std::size_t order_search_max_atoms = 12;
  /// DpOptions::domain_min_work default: estimated-work floor for engaging
  /// the candidate-domain layer.
  std::uint64_t domain_min_work = 1u << 12;
  /// DpOptions::parallel_split_min_work default: estimated-work floor for
  /// splitting one count across the pool.
  std::uint64_t parallel_split_min_work = 1u << 16;
  /// DpOptions::parallel_split_chunks_per_lane default: domain chunks
  /// carved per pool lane in the parallel split. 1 = one chunk per lane
  /// (minimal handshakes); larger values oversubscribe so uneven chunk
  /// costs rebalance. Sub-counts fold in fixed chunk order either way, so
  /// any value is bit-identical. Range [1, 64].
  std::size_t parallel_split_chunks_per_lane = 1;
  /// DpOptions::num_threads default for the parallel split (0 = pool
  /// width, 1 = serial).
  std::size_t hom_num_threads = 0;

  // --- hom/hom_cache + serve/service budgets -------------------------------
  /// HomCache retention defaults (per-cache; the serving tier passes its
  /// own ServiceOptions overrides through when nonzero). Must be >= 1
  /// entry / >= 1 byte — a zero budget would evict the cache's raison
  /// d'être, not disable it.
  std::size_t hom_cache_max_entries = 1u << 20;
  std::uint64_t hom_cache_max_bytes = 256ull << 20;
  /// ServiceOptions generation-rotation defaults for the persistent pool.
  std::size_t serve_pool_max_classes = 1u << 16;
  std::uint64_t serve_pool_max_bytes = 256ull << 20;

  // --- util/thread_pool ----------------------------------------------------
  /// Global pool width (total lanes incl. the caller). 0 = auto
  /// (std::thread::hardware_concurrency). The BAGDET_NUM_THREADS
  /// environment variable still takes precedence over the profile — it is
  /// the per-run override of last resort.
  std::size_t num_threads = 0;
};

/// Typed loader failures. A profile that fails to load NEVER partially
/// applies: the caller gets the error and the active profile is unchanged.
enum class TuningErrorCode {
  kIoError = 1,      ///< File missing/unreadable.
  kSyntaxError = 2,  ///< Line is not `key = value` / value not an integer.
  kUnknownKey = 3,   ///< Key is not a TuningProfile field.
  kOutOfRange = 4,   ///< Value violates the field's documented range.
};

/// Stable lowercase name ("io_error", "syntax_error", ...).
const char* TuningErrorCodeName(TuningErrorCode code);

struct TuningError {
  TuningErrorCode code;
  int line = 0;  ///< 1-based line of the offending entry (0: whole file).
  std::string message;
  std::string ToString() const;
};

/// Parses profile text. Returns the profile (fields not mentioned keep
/// their defaults) or nullopt with *error filled in.
std::optional<TuningProfile> ParseTuningProfile(const std::string& text,
                                                TuningError* error);

/// Reads and parses a profile file.
std::optional<TuningProfile> LoadTuningProfile(const std::string& path,
                                               TuningError* error);

/// Validates the field ranges of an in-memory profile (used by
/// SetTuningProfile; the parser checks each value as it reads it).
/// Engaged on violation.
std::optional<TuningError> ValidateTuningProfile(const TuningProfile& profile);

/// Serializes every field as `key = value` lines (parse round-trips).
std::string SerializeTuningProfile(const TuningProfile& profile);

/// The active profile. First call resolves BAGDET_TUNING_PROFILE (see file
/// comment); later calls are a lock-free atomic load. The reference stays
/// valid forever (replaced snapshots are retained).
const TuningProfile& Tuning();

/// Replaces the active profile (validated first; returns the error and
/// changes nothing when invalid). Thread-safe, but dispatch decisions
/// already made — options structs already constructed, the global pool if
/// already sized — keep their old defaults; swap at startup or between
/// requests.
std::optional<TuningError> SetTuningProfile(const TuningProfile& profile);

/// Re-resolves BAGDET_TUNING_PROFILE now and replaces the active profile:
/// unset → built-in defaults; set and loadable → that profile; set but
/// failing to load → built-in defaults AND the typed error is returned
/// (the fallback contract — a bad profile degrades to stock dispatch,
/// never down). Test seam for the env-var round-trip; Tuning()'s first
/// call does this implicitly (warning on stderr instead of returning).
std::optional<TuningError> ReloadTuningFromEnv();

}  // namespace bagdet

#endif  // BAGDET_UTIL_TUNING_H_
