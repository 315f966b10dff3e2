// A run's metrics by name, each with its unit, as the result JSON prints
// them.
#ifndef E2EBENCH_METRICS_H_
#define E2EBENCH_METRICS_H_

#include <cstdio>
#include <map>
#include <optional>
#include <string>

namespace e2ebench {

struct Metric {
  double value = 0;
  const char* unit = "";
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// Leaves the metric out when there is no value (a percentile without
  /// ten samples beyond it).
  void Set(const std::string& name, std::optional<double> value,
           const char* unit) {
    if (value) Set(name, *value, unit);
  }
  void Merge(const Metrics& other) {
    for (const auto& [name, m] : other.metrics_) metrics_[name] = m;
  }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const {
    std::string s = "{";
    for (const auto& [name, m] : metrics_) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    s.size() > 1 ? ", " : "", name.c_str(), m.value, m.unit);
      s += buf;
    }
    return s + "}";
  }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_METRICS_H_
