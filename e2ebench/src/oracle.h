// The answer check of every run: EvalStrategy::kBaseline (the paper's
// node-set evaluator) over pointer engines built from the same XML bytes
// the served collection was ingested from. Runs before or after the timed
// phases, never during them.
#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "workload.h"

namespace e2ebench {

/// (shard index, node id) in document-major order: a whole answer.
using Answer = std::vector<std::pair<int, int64_t>>;

/// One row of xpathd's /query body.
struct Row {
  std::string name;
  std::string status;
  std::vector<int64_t> nodes;
  int64_t visited = 0;
};

/// xpathd's /query body, as far as the benchmark reads it.
struct QueryBody {
  std::vector<Row> rows;
  int64_t latency_us = -1;
};

/// Parses a /query response body; false when it is not one.
bool ParseQueryBody(std::string_view body, QueryBody* out);

/// Flattens rows named shard0..shard{kShards-1} into an Answer; false when
/// a row is unknown or not OK.
bool Flatten(const std::vector<Row>& rows, Answer* out);

class Oracle {
 public:
  /// Builds one pointer engine per shard from `shard_xml`.
  explicit Oracle(const std::vector<std::string>& shard_xml);

  /// Evaluates every distinct query of `requests` not yet known.
  void Prepare(const std::vector<Request>& requests);

  /// True when `got` is the baseline's answer to `request`: the whole
  /// answer, or its document-order prefix of `limit` nodes. The first few
  /// mismatches are reported on stderr.
  bool Matches(const Request& request, const Answer& got) const;

 private:
  xpwqo::Collection collection_;
  std::map<std::string, Answer> answers_;
  mutable int reported_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_ORACLE_H_
