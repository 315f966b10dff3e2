// The benchmark's workloads: the shared XMark collection and the seeded
// request streams of the two serving mixes.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Collection shape shared by every workload: 4 shards of GenerateXMark at
/// scale 0.025 (4.09 MB of XML, 258,575 nodes at the default seed).
constexpr int kShards = 4;
constexpr double kScale = 0.025;
/// Person ids present in every shard at kScale (25,500 x 0.025).
constexpr int kPersonIds = 637;

/// xpathd runs with one worker: with two, p99 alternates between two
/// modes on consecutive runs (see README.md).
constexpr int kXpathdThreads = 1;
/// xpathd's default per-request deadline, used as the latency limit.
constexpr int64_t kLatencyLimitMs = 1000;

/// Persistent connections of the open-loop generator: a few, and never
/// more than nproc (main.cc caps it).
constexpr int kOpenConnections = 4;

struct WorkloadSpec {
  const char* name;
  /// Open-loop Poisson arrival rate, well below max_rps at the commit
  /// that introduced the benchmark (see kWorkloads).
  double rate_per_s;
  /// max_rps at that commit; sizes the fixed capacity request list so the
  /// closed-loop phase lasts about a tenth of the run.
  double expected_max_rps;
};

/// The serving mixes, or null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One HTTP query request.
struct Request {
  std::string xpath;
  int64_t limit = -1;  // < 0: no limit parameter
  /// Request target, e.g. "/query?q=%2Fsite&limit=10".
  std::string Target() const;
};

/// Request streams of a run; each stream has its own derived seed.
enum class Stream : uint64_t { kWarmup = 1, kOpen = 2, kCapacity = 3 };

/// Seed stream of round k's arrival schedule.
constexpr uint64_t kScheduleStream = 10;

/// `n` requests of workload `spec`, drawn in shuffled balanced blocks so
/// every run serves the same mix in a seed-dependent order.
std::vector<Request> MakeRequests(const WorkloadSpec& spec, uint64_t seed,
                                  Stream stream, size_t n);

/// A run is split into this many rounds, each with a slice of every
/// measured phase (ingest, open loop, capacity), so that each metric
/// samples the whole length of the run rather than one stretch of it.
constexpr int kRounds = 5;

/// One round's open-loop stretch: `warmup` unsampled requests, then the
/// sampled ones, each due at its Poisson arrival offset from the start of
/// the segment.
struct Segment {
  std::vector<Request> requests;
  std::vector<int64_t> due_ns;
  size_t warmup = 0;
};

/// The open-loop schedule of a run: `warmup` + `sampled` requests at the
/// workload's rate, split evenly over kRounds segments. A pure function of
/// its arguments.
std::vector<Segment> MakeSegments(const WorkloadSpec& spec, uint64_t seed,
                                  size_t warmup, size_t sampled);

/// The k-th of kRounds contiguous, near-equal slices of `v`.
template <typename T>
std::vector<T> RoundSlice(const std::vector<T>& v, int k) {
  const size_t lo = v.size() * static_cast<size_t>(k) / kRounds;
  const size_t hi = v.size() * static_cast<size_t>(k + 1) / kRounds;
  return std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(hi));
}

/// The cheap query every set-up probe answers: Q01, which touches every
/// shard.
Request SetupProbe();

/// The query the traced run times on freshly opened shards, cold and then
/// warm: the workload's heaviest single query.
Request ColdProbe(const WorkloadSpec& spec);

/// Generator seed of shard `i` under workload seed `seed`.
uint64_t ShardSeed(uint64_t seed, int i);

/// Writes shard{i}.xml for i < kShards into `dir` and returns the XML
/// strings (the oracle parses the same bytes).
std::vector<std::string> WriteShards(uint64_t seed, const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
