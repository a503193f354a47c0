// bagdet: named failpoints for deliberate fault injection.
//
// The robustness story of the governed-execution layer (exec_context.h) is
// only as good as its worst unwind path, so instead of hoping the DP, the
// canonical search, or the BigInt limb arena handle mid-flight
// cancellation and allocation failure, the test suite *injects* those
// faults at named sites and asserts clean unwind + consistent caches +
// bit-identical reruns.
//
// A failpoint is a named hook compiled into a kernel:
//
//   BAGDET_FAILPOINT("hom/dp_step");
//
// In default builds the macro expands to nothing — zero cost, zero code.
// Configuring with -DBAGDET_FAILPOINTS=ON compiles the hooks in; an
// unarmed registry then costs one relaxed atomic load per hook. Tests arm
// sites by name:
//
//   failpoint::Arm("hom/dp_step", {failpoint::Action::kCancel,
//                                  /*probability=*/1.0, /*hit_on=*/50});
//
// Triggers: every hit (defaults), exactly the N-th hit (`hit_on`), or a
// seeded coin flip per hit (`probability`) — all deterministic for a fixed
// seed and execution order. Actions: request cancellation on the current
// ExecContext (kCancel — a no-op when ungoverned, matching the cooperative
// model), throw std::bad_alloc (kBadAlloc), or sleep (kSleep, for shaking
// out deadline races).
//
// Registered sites (grep for BAGDET_FAILPOINT):
//   hom/dp_step        once per DP join step (hom.cpp RunDpPlan)
//   hom/dp_table_grow  FlatTable slot allocation: a hash-mode Grow, or a
//                      Reset that enlarges the slot array — kBadAlloc
//                      models table OOM
//   hom/matcher        once per Matcher backtracking node
//   canonical/branch   once per individualization-refinement branch
//   pool/intern        before a StructurePool entry is created
//   homcache/insert    before a HomCache insert mutates the count table
//   hilbert/entry      once per Hilbert summary grid entry
//   bigint/alloc       BigInt limb spill commit (CommitSpan/SetMagnitude)
//                      and limb-arena block growth — kBadAlloc models
//                      bignum OOM on every spill path
//   serve/admit        in DeterminacyService::Submit before enqueue —
//                      kBadAlloc models admission-path OOM (typed decline)
//   serve/dispatch     on a service runner before each governed attempt —
//                      kBadAlloc models a transient dispatch fault (retried
//                      with backoff), kCancel cancels that attempt's context

#ifndef BAGDET_UTIL_FAILPOINT_H_
#define BAGDET_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bagdet {
namespace failpoint {

/// What an armed failpoint does when it fires.
enum class Action {
  kOff,       ///< Armed but inert (useful for pure hit counting).
  kCancel,    ///< RequestCancel() on the current ExecContext, if any.
  kBadAlloc,  ///< throw std::bad_alloc.
  kSleep,     ///< Sleep sleep_ms (artificial latency).
};

/// Trigger + action configuration for one named site.
struct Config {
  Action action = Action::kOff;
  double probability = 1.0;    ///< Per-hit firing chance when hit_on == 0.
  std::uint64_t hit_on = 0;    ///< Fire on exactly the N-th hit (1-based);
                               ///< 0 = every hit (subject to probability).
  std::uint32_t sleep_ms = 0;  ///< Latency for kSleep.
  std::uint64_t seed = 1;      ///< Seeds the probabilistic trigger.
};

/// True iff the hooks were compiled in (BAGDET_FAILPOINTS builds). Tests
/// GTEST_SKIP their injection cases when false.
constexpr bool Enabled() {
#if defined(BAGDET_FAILPOINTS)
  return true;
#else
  return false;
#endif
}

/// Arms (or re-arms, resetting the hit counter) the named site.
void Arm(const std::string& name, const Config& config);

/// Disarms one site / every site. DisarmAll() is the per-test epilogue.
void Disarm(const std::string& name);
void DisarmAll();

/// Hits observed by an armed site since it was last armed (0 if unarmed).
std::uint64_t HitCount(const std::string& name);

/// Names currently armed, sorted.
std::vector<std::string> ArmedNames();

/// Hook body behind BAGDET_FAILPOINT — evaluates the named site. Direct
/// calls are only for the registry's own tests.
void Evaluate(const char* name);

}  // namespace failpoint
}  // namespace bagdet

#if defined(BAGDET_FAILPOINTS)
#define BAGDET_FAILPOINT(name) ::bagdet::failpoint::Evaluate(name)
#else
#define BAGDET_FAILPOINT(name) \
  do {                         \
  } while (false)
#endif

#endif  // BAGDET_UTIL_FAILPOINT_H_
