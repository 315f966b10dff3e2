// Spans for the traced run: one span per call into a layer's public entry
// point, timed from the benchmark's own code. Spans stay in memory and are
// written out once, when the run ends.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  int64_t request = -1;  // request id shared by a request's spans; -1: none
  int32_t parent = -1;   // index of the enclosing span; -1: root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Work counters recorded at the same boundary.
  std::map<std::string, int64_t> counters;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Opens a span now; returns its index.
  int32_t Begin(const char* name, int64_t request = -1, int32_t parent = -1);
  void End(int32_t span);
  /// Records a span whose bounds were measured elsewhere.
  int32_t Add(const char* name, int64_t request, int32_t parent,
              int64_t start_ns, int64_t end_ns);
  void Count(int32_t span, const std::string& counter, int64_t value);

  const std::vector<Span>& spans() const { return spans_; }
  Span& at(int32_t span) { return spans_[static_cast<size_t>(span)]; }

  /// The span's duration minus the part of it its children cover.
  int64_t SelfNs(int32_t span) const;

  /// Writes one JSON object per span (name, request, parent, start/end
  /// relative to the first span, self time and counters).
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  mutable std::vector<std::vector<int32_t>> children_;  // built on demand
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
