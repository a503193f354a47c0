#include "spans.h"

#include <cstdio>

namespace e2e {

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && !s.shadow) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = totals[s.name];
    const std::int64_t duration = s.end_ns - s.start_ns;
    t.total_ns += duration;
    if (!s.shadow) t.self_ns += duration - child_ns[i];
    ++t.count;
  }
  return totals;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"op\":%u,\"parent\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"shadow\":%s}\n",
                 s.name, s.op, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.shadow ? "true" : "false");
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
