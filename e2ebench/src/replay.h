// The traced run's in-process half: the same requests, on the same saved
// collection, replayed through persist, serve and core entry points with a
// span around each call.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace e2ebench {

struct ReplayOutcome {
  Metrics metrics;  // per-layer metrics
  int64_t attempted = 0;
  int64_t failed = 0;  // non-OK jobs
  int64_t wrong = 0;   // answers that disagree with the oracle
};

/// Replays the HTTP phase's segments (their warm-up requests unsampled)
/// against the collection saved in `collection_dir`.
ReplayOutcome RunReplays(const std::string& collection_dir,
                         const WorkloadSpec& spec,
                         const std::vector<Segment>& segments,
                         const Oracle& oracle, Tracer* tracer);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_
