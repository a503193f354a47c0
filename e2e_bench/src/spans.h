// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, op id, shadow). Spans nest on one
// thread through a stack: Begin pushes, End pops, and the parent of a new
// span is the innermost open one. Nothing is formatted while recording;
// WriteJsonl dumps every span once, at the end of the run.
//
// Self time of a span is its duration minus the part of it that its child
// spans cover (children on one thread never overlap, so that is the sum of
// their durations). Shadow spans are replays of calls an op already made
// inside a bundled public call (see ops.h); they sit under their own root
// and never count toward any non-shadow span's self time.

#ifndef BAGDET_E2E_SPANS_H_
#define BAGDET_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index of the parent span, -1 for a root.
  std::uint32_t op = 0;
  bool shadow = false;
};

/// Per-name totals over the recorded spans.
struct SpanTotals {
  std::int64_t self_ns = 0;   ///< Non-shadow spans only.
  std::int64_t total_ns = 0;  ///< Duration, shadow or not.
  std::uint64_t count = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  /// Opens a span under the innermost open one. `name` must outlive the
  /// recorder (string literals).
  std::int32_t Begin(const char* name, std::uint32_t op, bool shadow) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.shadow = shadow;
    spans_.push_back(s);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    spans_.back().start_ns = NowNs();
    return index;
  }

  void End(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  /// Records an already-measured span (serving: the queue and execution
  /// intervals a response reports) under `parent`.
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int32_t parent, std::uint32_t op) {
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = parent;
    s.op = op;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self and total time per span name.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes one JSON object per span; returns false when the file cannot
  /// be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null recorder records nothing, so one code path serves the
/// traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::uint32_t op,
             bool shadow = false)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name, op, shadow) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

}  // namespace e2e

#endif  // BAGDET_E2E_SPANS_H_
