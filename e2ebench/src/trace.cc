#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "harness.h"

namespace e2ebench {

int32_t Tracer::Begin(const char* name, int64_t request, int32_t parent) {
  const int64_t now = NowNs();
  return Add(name, request, parent, now, now);
}

void Tracer::End(int32_t span) { at(span).end_ns = NowNs(); }

int32_t Tracer::Add(const char* name, int64_t request, int32_t parent,
                    int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  children_.clear();
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Count(int32_t span, const std::string& counter, int64_t value) {
  at(span).counters[counter] += value;
}

int64_t Tracer::SelfNs(int32_t span) const {
  if (children_.size() != spans_.size()) {
    children_.assign(spans_.size(), {});
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children_[static_cast<size_t>(spans_[i].parent)].push_back(
            static_cast<int32_t>(i));
      }
    }
  }
  const Span& s = spans_[static_cast<size_t>(span)];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const int32_t c : children_[static_cast<size_t>(span)]) {
    const Span& child = spans_[static_cast<size_t>(c)];
    const int64_t lo = std::max(child.start_ns, s.start_ns);
    const int64_t hi = std::min(child.end_ns, s.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = s.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return s.duration_ns() - union_ns;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%lld,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f",
                 i, s.name, static_cast<long long>(s.request), s.parent,
                 (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3,
                 SelfNs(static_cast<int32_t>(i)) / 1e3);
    for (const auto& [key, value] : s.counters) {
      std::fprintf(f, ",\"%s\":%lld", key.c_str(),
                   static_cast<long long>(value));
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
