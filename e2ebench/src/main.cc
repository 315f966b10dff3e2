// e2ebench: the repository's end-to-end benchmark. One run = one workload
// at one seed:
//
//   1. write the workload's 4 XMark shards (seeded) as XML files;
//   2. save the collection in an ingest child (one LoadAll, one save, one
//      reopen checked against the in-memory collection);
//   3. answer every distinct query with the baseline oracle (untimed);
//   4. run kRounds rounds of: an ingest slice (LoadAll passes in a child),
//      xpathd restarts on the saved collection timed to their first
//      answer, a closed-loop capacity slice and an open-loop Poisson
//      segment (warm-up, then sampled), driven from one generator thread;
//   5. stop xpathd, reap every instance for its peak RSS, check every
//      answer.
//
// Traced runs (--trace 1) start xpathd once and skip the capacity slices,
// then replay the same segments in-process (replay.cc) to time each
// layer's entry points. The last stdout line is the result JSON.
//
//   e2ebench run --workload xmark_mix --seed 1 --seconds 40 --trace 0
//       --work DIR [--xpathd PATH]
//   e2ebench ingest ...   (the ingest child; see ingest.h)
#include <signal.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "ingest.h"
#include "metrics.h"
#include "net/http.h"
#include "oracle.h"
#include "proc.h"
#include "replay.h"
#include "trace.h"
#include "workload.h"

namespace e2ebench {
namespace {

constexpr int kSetupRestartsPerRound = 5;
constexpr int kParseRepeats = 200;

// Shares of --seconds spent in each measured phase; each phase is spread
// over kRounds rounds.
constexpr double kIngestShare = 0.10;
constexpr double kWarmupShare = 0.05;
constexpr double kOpenShare = 0.75;
constexpr double kCapacityShare = 0.10;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string xpathd = E2EBENCH_XPATHD;  // built alongside, see CMakeLists.txt
  std::string work;
  std::string commit = "unknown";
  // ingest mode
  IngestArgs ingest;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --work DIR [--xpathd PATH] [--commit ID]\n"
               "       e2ebench ingest --xml-dir D (--out D | --seconds S) "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Usage("missing mode");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = a.ingest.seconds = std::atof(value.c_str());
    else if (key == "--trace") a.trace = a.ingest.trace = value == "1";
    else if (key == "--xpathd") a.xpathd = value;
    else if (key == "--work") a.work = value;
    else if (key == "--commit") a.commit = value;
    else if (key == "--xml-dir") a.ingest.xml_dir = value;
    else if (key == "--out") a.ingest.out_dir = value;
    else if (key == "--spans") a.ingest.spans_path = value;
    else Usage(("unknown flag " + key).c_str());
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

// A fixed table walk owned by the benchmark: dependent loads over a 4 MiB
// cyclic permutation. Timed before and after each run so that runs taken
// in a slow stretch of the host are visible next to their numbers; it
// never scales a metric.
double ProbeMs() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1u << 20);
    for (uint32_t i = 0; i < t.size(); ++i) t[i] = i;
    Rng rng(20100324);
    for (size_t i = t.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(t[i], t[rng.Uniform(i)]);
    }
    return t;
  }();
  const int64_t start = NowNs();
  uint32_t x = 0;
  for (int i = 0; i < (1 << 21); ++i) x = table[x];
  const int64_t ns = NowNs() - start;
  static volatile uint32_t sink;
  sink = sink + x;
  return ns / 1e6;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// An ingest child's "key value" lines; keys may repeat.
using Values = std::map<std::string, std::vector<double>>;

void ParseKeyValues(const std::string& text, Values* into) {
  std::istringstream in(text);
  std::string key;
  double value = 0;
  while (in >> key >> value) (*into)[key].push_back(value);
}

double First(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() || it->second.empty() ? 0.0 : it->second.front();
}

double Sum(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  double sum = 0;
  if (it != v.end()) {
    for (const double x : it->second) sum += x;
  }
  return sum;
}

std::vector<std::string> XpathdArgv(const Args& args, const std::string& dir) {
  return {args.xpathd, "--index", dir, "--port", "0", "--threads",
          std::to_string(kXpathdThreads)};
}

struct Checker {
  const Oracle* oracle;
  int64_t attempted = 0;
  std::map<std::string, int64_t> failures;  // failed operations by cause
  std::map<int, int64_t> statuses;          // HTTP statuses seen

  void Fail(const std::string& cause, int64_t n = 1) {
    if (n > 0) failures[cause] += n;
  }
  int64_t failed() const {
    int64_t n = 0;
    for (const auto& [cause, count] : failures) n += count;
    return n;
  }
  int64_t wrong() const {
    const auto it = failures.find("wrong");
    return it == failures.end() ? 0 : it->second;
  }

  // Checks one exchange; true when it is a correct 200.
  bool Check(const Request& request, const Exchange& ex, QueryBody* body) {
    ++attempted;
    ++statuses[ex.status];
    if (ex.status != 200) {
      Fail(ex.status == 0 ? "transport" : "status_" + std::to_string(ex.status));
      return false;
    }
    Answer answer;
    const bool parsed = ParseQueryBody(ex.body, body) && Flatten(body->rows, &answer);
    if (!parsed || !oracle->Matches(request, answer)) {
      if (!parsed && wrong() < 5) {
        std::fprintf(stderr, "e2ebench: unreadable answer to %s: %.200s\n",
                     request.xpath.c_str(), ex.body.c_str());
      }
      Fail("wrong");
      return false;
    }
    return true;
  }
};


int RunMain(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  if (args.xpathd.empty() || args.work.empty()) Usage("--work is required");
  namespace fs = std::filesystem;
  const std::string run_dir = args.work + "/run-" + std::to_string(getpid());
  const std::string xml_dir = run_dir + "/xml";
  const std::string coll_dir = run_dir + "/collection";
  fs::remove_all(run_dir);
  fs::create_directories(xml_dir);
  const std::string self = fs::read_symlink("/proc/self/exe").string();

  const double probe_before = ProbeMs();
  const double S = args.seconds;
  // Wall time of each step, for the record line.
  std::string phases;
  int64_t phase_start = NowNs();
  auto phase_done = [&](const char* name) {
    const int64_t now = NowNs();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f", phases.empty() ? "" : ", ",
                  name, (now - phase_start) / 1e9);
    phases += buf;
    phase_start = now;
  };

  // 1. Inputs.
  const std::vector<std::string> xml = WriteShards(args.seed, xml_dir);
  phase_done("generate");

  // 2. Save the collection xpathd will serve (an ingest child in save mode).
  Values ing;
  std::vector<std::string> span_files;
  auto run_ingest = [&](std::vector<std::string> mode) {
    std::vector<std::string> argv = {self, "ingest", "--xml-dir", xml_dir,
                                     "--trace", args.trace ? "1" : "0"};
    argv.insert(argv.end(), mode.begin(), mode.end());
    if (args.trace) {
      span_files.push_back(run_dir + "/spans-ingest-" +
                           std::to_string(span_files.size()) + ".jsonl");
      argv.push_back("--spans");
      argv.push_back(span_files.back());
    }
    Child child;
    if (!child.Spawn(argv)) throw std::runtime_error("spawn ingest");
    const Child::Exit exit = child.Finish(0);
    if (exit.code != 0) throw std::runtime_error("ingest child failed: " + exit.err);
    ParseKeyValues(exit.out, &ing);
  };
  run_ingest({"--out", coll_dir});
  phase_done("save");

  // 3. Requests, schedule and the oracle's answers.
  const auto count = [&](double rate, double share) {
    return static_cast<size_t>(std::lround(rate * share * S));
  };
  const std::vector<Segment> segments =
      MakeSegments(*spec, args.seed, count(spec->rate_per_s, kWarmupShare),
                   count(spec->rate_per_s, kOpenShare));
  const std::vector<Request> cap_requests =
      args.trace ? std::vector<Request>{}
                 : MakeRequests(*spec, args.seed, Stream::kCapacity,
                                count(spec->expected_max_rps, kCapacityShare));
  Oracle oracle(xml);
  for (const Segment& seg : segments) oracle.Prepare(seg.requests);
  oracle.Prepare(cap_requests);
  oracle.Prepare({SetupProbe(), ColdProbe(*spec)});
  phase_done("oracle");
  Checker checker{&oracle, 0, {}, {}};

  // 4. Rounds. Each round runs an ingest slice; restarts xpathd on the
  // saved collection kSetupRestartsPerRound times, timing each start to its
  // first answer over every shard, the last instance serving the round; a
  // capacity slice, which also refills the new instance's caches after the
  // ingest child; and an open-loop segment. Spreading every phase over the
  // rounds makes each metric sample the whole run.
  std::vector<double> setup_s;
  long xpathd_rss_kb = 0;
  const std::vector<std::string> argv = XpathdArgv(args, coll_dir);
  const std::string probe_bytes = HttpGet(SetupProbe().Target());
  Child server;
  uint16_t port = 0;
  // xpathd announces its port before it installs its SIGTERM handler, so
  // each stop first waits for the handler.
  auto stop_server = [&] {
    if (!server.WaitUntilCatching(SIGTERM, 5'000)) checker.Fail("xpathd_signal");
    xpathd_rss_kb = std::max(xpathd_rss_kb, server.PeakRssKb());
    const Child::Exit exit = server.Finish(SIGTERM);
    if (exit.code != 0) {
      checker.Fail("xpathd_exit");
      std::fprintf(stderr, "e2ebench: xpathd exited with %d: %s\n", exit.code,
                   exit.err.c_str());
    }
  };
  auto start_server = [&] {
    const int64_t t0 = NowNs();
    if (!server.Spawn(argv)) throw std::runtime_error("spawn xpathd");
    port = server.WaitForListeningPort(30'000);
    if (port == 0) {
      throw std::runtime_error("xpathd did not start: " + server.Finish(SIGKILL).err);
    }
    DriveOptions probe;
    probe.port = port;
    probe.closed_loop = true;
    const std::vector<Exchange> ex = Drive(probe, {probe_bytes}, {});
    QueryBody body;
    if (checker.Check(SetupProbe(), ex[0], &body)) {
      setup_s.push_back((ex[0].done_ns - t0) / 1e9);
    }
  };
  // One generator thread over at most nproc connections.
  const int open_connections = static_cast<int>(
      std::min<long>(kOpenConnections, sysconf(_SC_NPROCESSORS_ONLN)));
  std::vector<std::vector<Exchange>> open_ex;
  std::vector<Exchange> cap_ex;
  int64_t cap_ns = 0;
  for (int k = 0; k < kRounds; ++k) {
    char seconds[32];
    std::snprintf(seconds, sizeof seconds, "%.4f", kIngestShare * S / kRounds);
    run_ingest({"--seconds", seconds});

    // The traced run starts one instance and keeps it.
    const int restarts = args.trace ? (k == 0 ? 1 : 0) : kSetupRestartsPerRound;
    for (int r = 0; r < restarts; ++r) {
      if (server.running()) stop_server();
      start_server();
    }

    std::vector<std::string> bytes;
    for (const Request& r : RoundSlice(cap_requests, k)) bytes.push_back(HttpGet(r.Target()));
    if (!bytes.empty()) {
      DriveOptions cap;
      cap.port = port;
      cap.connections = kXpathdThreads + 1;
      cap.closed_loop = true;
      std::vector<Exchange> ex = Drive(cap, bytes, {});
      int64_t first = ex.front().sent_ns, last = 0;
      for (const Exchange& e : ex) last = std::max(last, e.done_ns);
      cap_ns += last - first;
      std::move(ex.begin(), ex.end(), std::back_inserter(cap_ex));
    }

    bytes.clear();
    for (const Request& r : segments[k].requests) bytes.push_back(HttpGet(r.Target()));
    DriveOptions open;
    open.port = port;
    open.connections = open_connections;
    open_ex.push_back(Drive(open, bytes, segments[k].due_ns));
  }
  phase_done("rounds");

  // 5. Stop, reap, check.
  stop_server();

  std::vector<double> latency_ms, ttfb_ms, self_ms, ftl_ms, lag_ms;
  std::vector<std::string> sampled_bytes;
  double response_bytes = 0;
  Tracer tracer;
  int64_t id = 0;  // request id across segments
  for (size_t k = 0; k < segments.size(); ++k) {
    for (size_t i = 0; i < open_ex[k].size(); ++i, ++id) {
      const Request& request = segments[k].requests[i];
      const Exchange& ex = open_ex[k][i];
      QueryBody body;
      const bool good = checker.Check(request, ex, &body);
      if (i < segments[k].warmup) continue;
      double ms = (ex.done_ns - ex.due_ns) / 1e6;
      if (good && ms > kLatencyLimitMs) checker.Fail("late");
      // A failed request counts as missing the latency limit.
      if (!good) ms = std::max<double>(ms, kLatencyLimitMs);
      latency_ms.push_back(ms);
      ttfb_ms.push_back((ex.first_byte_ns - ex.due_ns) / 1e6);
      if (!args.trace || !good) continue;
      sampled_bytes.push_back(HttpGet(request.Target()));
      lag_ms.push_back((ex.sent_ns - ex.ready_ns) / 1e6);
      ftl_ms.push_back((ex.done_ns - ex.first_byte_ns) / 1e6);
      self_ms.push_back(ms - body.latency_us / 1e3);
      response_bytes += static_cast<double>(ex.body.size());
      const int32_t span = tracer.Add("net.request", id, -1, ex.due_ns, ex.done_ns);
      int64_t visited = 0;
      for (const Row& row : body.rows) visited += row.visited;
      tracer.Count(span, "send_lag_us", (ex.sent_ns - ex.ready_ns) / 1000);
      tracer.Count(span, "connection_wait_us", (ex.ready_ns - ex.due_ns) / 1000);
      tracer.Count(span, "server_latency_us", body.latency_us);
      tracer.Count(span, "visited", visited);
      tracer.Count(span, "response_bytes", static_cast<int64_t>(ex.body.size()));
      tracer.Add("net.response", id, span, ex.first_byte_ns, ex.done_ns);
    }
  }
  int64_t cap_ok = 0;
  for (size_t i = 0; i < cap_ex.size(); ++i) {
    QueryBody body;
    const Exchange& ex = cap_ex[i];
    const bool within = (ex.done_ns - ex.sent_ns) / 1e6 <= kLatencyLimitMs;
    if (checker.Check(cap_requests[i], ex, &body)) {
      if (within) ++cap_ok;
      else checker.Fail("late");
    }
  }

  // Ingest children join the run's accounting.
  checker.attempted += static_cast<int64_t>(ing["load_ms"].size() + First(ing, "reopen_checked"));
  checker.Fail("ingest", static_cast<int64_t>(Sum(ing, "load_failures")));
  checker.Fail("wrong", static_cast<int64_t>(First(ing, "reopen_mismatches")));

  Metrics out;
  const double xml_bytes = First(ing, "xml_bytes");
  const std::optional<double> load_ms = Percentile(ing["load_ms"], 0.5);
  if (!args.trace) {
    out.Set("p50_ms", Percentile(latency_ms, 0.5), "ms");
    out.Set("p99_ms", Percentile(latency_ms, 0.99), "ms");
    out.Set("ttfb_p50_ms", Percentile(ttfb_ms, 0.5), "ms");
    if (cap_ns > 0) out.Set("max_rps", cap_ok / (cap_ns / 1e9), "1/s");
    out.Set("setup_s", Percentile(setup_s, 0.5), "s");
    out.Set("peak_rss_mb", xpathd_rss_kb * 1024 / 1e6, "MB");
    if (load_ms) out.Set("ingest_mb_s", xml_bytes / 1e6 / (*load_ms / 1e3), "MB/s");
    out.Set("image_bytes_per_xml_byte", First(ing, "image_bytes") / xml_bytes, "ratio");
    out.Set("ingest_peak_rss_mb", First(ing, "peak_rss_kb") * 1024 / 1e6, "MB");
  } else {
    // net: per-call cost of parsing the exact request bytes that were sent.
    std::vector<double> parse_us;
    for (const std::string& bytes : sampled_bytes) {
      const int64_t t0 = NowNs();
      for (int k = 0; k < kParseRepeats; ++k) {
        xpwqo::net::HttpRequest req;
        size_t consumed = 0;
        int status = 0;
        std::string error;
        xpwqo::net::ParseHttpRequest(bytes, 16384, &req, &consumed, &status, &error);
      }
      parse_us.push_back((NowNs() - t0) / 1e3 / kParseRepeats);
    }
    phase_done("check");
    const ReplayOutcome replay = RunReplays(coll_dir, *spec, segments, oracle, &tracer);
    phase_done("replay");
    checker.attempted += replay.attempted;
    checker.Fail("replay_status", replay.failed);
    checker.Fail("wrong", replay.wrong);
    out.Merge(replay.metrics);
    const double requests = static_cast<double>(latency_ms.size());
    out.Set("net.requests", requests, "count");
    out.Set("net.self_ms.p50", Percentile(self_ms, 0.5), "ms");
    out.Set("net.self_ms.p99", Percentile(self_ms, 0.99), "ms");
    out.Set("net.response_bytes.mean", requests > 0 ? response_bytes / requests : 0, "bytes");
    out.Set("net.first_to_last_byte_ms.p50", Percentile(ftl_ms, 0.5), "ms");
    out.Set("net.parse_us.p50", Percentile(parse_us, 0.5), "us");
    out.Set("net.send_lag_ms.p99", Percentile(lag_ms, 0.99), "ms");
    out.Set("trace.p50_ms", Percentile(latency_ms, 0.5), "ms");
    out.Set("trace.p99_ms", Percentile(latency_ms, 0.99), "ms");
    const double nodes = First(ing, "nodes");
    out.Set("index.nodes", nodes, "count");
    out.Set("index.tree_bytes_per_node", First(ing, "tree_bytes") / nodes, "bytes");
    out.Set("index.label_bytes_per_node", First(ing, "label_bytes") / nodes, "bytes");
    out.Set("index.text_bytes_per_node", First(ing, "text_bytes") / nodes, "bytes");
    const std::optional<double> parse_ms = Percentile(ing["parse_ms"], 0.5);
    const std::optional<double> scan_ms = Percentile(ing["scan_ms"], 0.5);
    if (load_ms && parse_ms) {
      out.Set("index.build_ms", *load_ms - *parse_ms, "ms");
      out.Set("xml.parse_share", *parse_ms / *load_ms, "ratio");
    }
    out.Set("persist.save_ms", First(ing, "save_ms"), "ms");
    out.Set("persist.image_bytes", First(ing, "image_bytes"), "bytes");
    out.Set("xml.bytes", xml_bytes, "bytes");
    if (scan_ms) out.Set("xml.scan_mb_s", xml_bytes / 1e6 / (*scan_ms / 1e3), "MB/s");
    if (parse_ms) out.Set("xml.parse_mb_s", xml_bytes / 1e6 / (*parse_ms / 1e3), "MB/s");
    // Spans stay in memory until here.
    fs::create_directories(args.work + "/traces");
    const std::string stem =
        args.work + "/traces/" + args.workload + "-" + std::to_string(args.seed);
    tracer.WriteJsonLines(stem + "-serve.jsonl");
    std::ofstream ingest_spans(stem + "-ingest.jsonl", std::ios::trunc);
    for (const std::string& path : span_files) {
      ingest_spans << std::ifstream(path).rdbuf();
    }
  }
  const double probe_after = ProbeMs();

  // The host record, then the result (the last line).
  utsname uts{};
  uname(&uts);
  std::string statuses, failures;
  for (const auto& [status, n] : checker.statuses) {
    statuses += (statuses.empty() ? "" : ", ") + std::string("\"") +
                std::to_string(status) + "\": " + std::to_string(n);
  }
  for (const auto& [cause, n] : checker.failures) {
    failures += (failures.empty() ? "" : ", ") + std::string("\"") + cause +
                "\": " + std::to_string(n);
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"cpu\": \"%s\", \"kernel\": \"%s\", "
      "\"commit\": \"%s\", \"shards\": %d, \"scale\": %g, "
      "\"xpathd_flags\": \"--threads %d (defaults otherwise)\", "
      "\"rate_per_s\": %g, \"open_connections\": %d, "
      "\"capacity_connections\": %d, \"latency_limit_ms\": %lld, "
      "\"rounds\": %d, \"open_samples\": %zu, \"capacity_requests\": %zu, "
      "\"setup_restarts\": %zu, \"ingest_passes\": %zu, "
      "\"host.probe_ms\": {\"before\": %.3f, \"after\": %.3f}, "
      "\"statuses\": {%s}, \"failures\": {%s}, \"phase_s\": {%s}}}\n",
      spec->name, static_cast<unsigned long long>(args.seed), S,
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      JsonEscape(CpuModel()).c_str(), JsonEscape(uts.release).c_str(),
      JsonEscape(args.commit).c_str(), kShards, kScale, kXpathdThreads,
      spec->rate_per_s, open_connections, kXpathdThreads + 1,
      static_cast<long long>(kLatencyLimitMs), kRounds, latency_ms.size(),
      cap_requests.size(), setup_s.size(), ing["load_ms"].size(), probe_before,
      probe_after, statuses.c_str(), failures.c_str(), phases.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              checker.wrong() == 0 ? "true" : "false",
              static_cast<long long>(checker.attempted),
              static_cast<long long>(checker.failed()), out.Json().c_str());
  std::fflush(stdout);
  fs::remove_all(run_dir);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    const e2ebench::Args args = e2ebench::ParseArgs(argc, argv);
    if (args.mode == "ingest") {
      if (args.ingest.xml_dir.empty()) e2ebench::Usage("--xml-dir is required");
      return e2ebench::IngestMain(args.ingest);
    }
    if (args.mode == "run") return e2ebench::RunMain(args);
    e2ebench::Usage("unknown mode");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
