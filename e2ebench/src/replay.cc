#include "replay.h"

#include <time.h>

#include <chrono>
#include <optional>
#include <stdexcept>

#include "harness.h"
#include "persist/index_image.h"
#include "serve/serving_runtime.h"

namespace e2ebench {

namespace {

constexpr int kPersistReps = 21;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SleepUntilNs(int64_t at) {
  timespec ts{};
  ts.tv_sec = at / 1'000'000'000;
  ts.tv_nsec = at % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

xpwqo::Collection OpenWarm(const std::string& dir) {
  auto opened = xpwqo::OpenCollection(dir);
  if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
  for (const std::string& name : opened->names()) {
    if (!opened->Get(name).ok()) throw std::runtime_error("load " + name);
  }
  return std::move(opened).value();
}

// Opens one shard's cursor the way ServingRuntime::RunDocument does:
// default options plus a deadline-bearing ExecControl, which must outlive
// the cursor.
xpwqo::ResultCursor OpenShard(const xpwqo::Collection& collection,
                              const std::string& name,
                              const xpwqo::PreparedQuery& query,
                              const xpwqo::ExecControl& control) {
  auto engine = collection.Get(name);
  if (!engine.ok()) throw std::runtime_error(engine.status().ToString());
  xpwqo::QueryOptions options;
  options.control = &control;
  auto cursor = (*engine)->OpenCursor(query, options);
  if (!cursor.ok()) throw std::runtime_error(cursor.status().ToString());
  return std::move(cursor).value();
}

// The shard loop with no timing and no spans: the untraced side of the
// tracing-overhead comparison.
Answer RunShards(const xpwqo::Collection& collection,
                 const xpwqo::PreparedQuery& query, int64_t limit_left) {
  Answer answer;
  for (size_t s = 0; s < collection.names().size() && limit_left != 0; ++s) {
    const xpwqo::QueryContext context = xpwqo::QueryContext::WithTimeout(
        std::chrono::milliseconds(kLatencyLimitMs));
    const xpwqo::ExecControl control = context.MakeControl(-1);
    xpwqo::ResultCursor cursor =
        OpenShard(collection, collection.names()[s], query, control);
    for (xpwqo::NodeId n = cursor.Next(); n != xpwqo::kNullNode; n = cursor.Next()) {
      answer.emplace_back(static_cast<int>(s), n);
      if (limit_left > 0 && --limit_left == 0) break;
    }
  }
  return answer;
}

// The same request, compiled through the collection's query cache and run
// shard by shard with every call timed. With a tracer, records
// core.request with core.compile, core.cursor and core.first_result
// children, plus the cursors' work counters.
struct CoreRun {
  Answer answer;
  int64_t loop_ns = 0;    // first OpenCursor to the last cursor's end
  int64_t cursor_ns = 0;  // summed over shards
  int64_t first_result_ns = -1;
  int64_t compile_ns = 0;
  bool cache_hit = false;
  int64_t visited = 0, jumps = 0, memo_hits = 0, returned = 0;
  int64_t filter_checked = 0, filter_rejected = 0;
};

CoreRun RunCore(const xpwqo::Collection& collection, const Request& request,
                int64_t id, Tracer* tracer) {
  CoreRun run;
  const int32_t root = tracer ? tracer->Begin("core.request", id) : -1;
  const int64_t hits_before = collection.query_cache()->hits();
  const int64_t compile_start = NowNs();
  auto prepared = collection.PrepareCached(request.xpath);
  run.compile_ns = NowNs() - compile_start;
  run.cache_hit = collection.query_cache()->hits() > hits_before;
  if (!prepared.ok()) throw std::runtime_error(prepared.status().ToString());
  if (tracer) {
    const int32_t c = tracer->Add("core.compile", id, root, compile_start,
                                  compile_start + run.compile_ns);
    tracer->Count(c, "cache_hit", run.cache_hit ? 1 : 0);
  }
  int64_t limit_left = request.limit;
  int64_t first_open = -1;
  for (size_t s = 0; s < collection.names().size() && limit_left != 0; ++s) {
    const int64_t open_ns = NowNs();
    if (first_open < 0) first_open = open_ns;
    const xpwqo::QueryContext context = xpwqo::QueryContext::WithTimeout(
        std::chrono::milliseconds(kLatencyLimitMs));
    const xpwqo::ExecControl control = context.MakeControl(-1);
    xpwqo::ResultCursor cursor =
        OpenShard(collection, collection.names()[s], **prepared, control);
    for (xpwqo::NodeId n = cursor.Next(); n != xpwqo::kNullNode; n = cursor.Next()) {
      if (run.first_result_ns < 0) run.first_result_ns = NowNs() - first_open;
      run.answer.emplace_back(static_cast<int>(s), n);
      if (limit_left > 0 && --limit_left == 0) break;
    }
    const xpwqo::CursorStats stats = cursor.TakeStats();
    const int64_t close_ns = NowNs();
    run.loop_ns = close_ns - first_open;
    run.cursor_ns += close_ns - open_ns;
    const int64_t visited = stats.eval.nodes_visited + stats.hybrid.nodes_visited;
    run.visited += visited;
    run.jumps += stats.eval.jumps;
    run.memo_hits += stats.eval.memo_hits;
    run.returned += stats.returned;
    run.filter_checked += stats.filter_checked;
    run.filter_rejected += stats.filter_rejected;
    if (tracer) {
      const int32_t c = tracer->Add("core.cursor", id, root, open_ns, close_ns);
      tracer->Count(c, "shard", static_cast<int64_t>(s));
      tracer->Count(c, "visited", visited);
      tracer->Count(c, "jumps", stats.eval.jumps);
      tracer->Count(c, "memo_hits", stats.eval.memo_hits);
      tracer->Count(c, "returned", stats.returned);
      tracer->Count(c, "filter_checked", stats.filter_checked);
      tracer->Count(c, "filter_rejected", stats.filter_rejected);
    }
  }
  if (tracer) {
    if (run.first_result_ns >= 0) {
      tracer->Add("core.first_result", id, root, first_open,
                  first_open + run.first_result_ns);
    }
    tracer->End(root);
  }
  return run;
}

}  // namespace

ReplayOutcome RunReplays(const std::string& collection_dir,
                         const WorkloadSpec& spec,
                         const std::vector<Segment>& segments,
                         const Oracle& oracle, Tracer* tracer) {
  ReplayOutcome out;
  auto& m = out.metrics;

  // persist: open + first touch of every shard, then one fixed query cold
  // (freshly mapped shard) and again warm.
  const Request cold_probe = ColdProbe(spec);
  std::vector<double> open_ms, first_query_ms;
  for (int rep = 0; rep < kPersistReps; ++rep) {
    const int32_t open = tracer->Begin("persist.open");
    auto opened = xpwqo::OpenCollection(collection_dir);
    if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
    for (const std::string& name : opened->names()) {
      const int32_t touch = tracer->Begin("persist.first_touch", -1, open);
      if (!opened->Get(name).ok()) ++out.failed;
      tracer->End(touch);
    }
    tracer->End(open);
    const int64_t cold_start = NowNs();
    const CoreRun cold = RunCore(*opened, cold_probe, -1, nullptr);
    const int64_t cold_end = NowNs();
    const CoreRun warm = RunCore(*opened, cold_probe, -1, nullptr);
    out.attempted += 2;
    if (!oracle.Matches(cold_probe, cold.answer)) ++out.wrong;
    if (!oracle.Matches(cold_probe, warm.answer)) ++out.wrong;
    const int64_t cold_ns = cold.compile_ns + cold.cursor_ns;
    const int64_t warm_ns = warm.compile_ns + warm.cursor_ns;
    const int32_t q =
        tracer->Add("persist.first_query", -1, -1, cold_start, cold_end);
    tracer->Count(q, "warm_ns", warm_ns);
    open_ms.push_back(tracer->at(open).duration_ns() / 1e6);
    first_query_ms.push_back((cold_ns - warm_ns) / 1e6);
  }
  m.Set("persist.open_ms", Percentile(open_ms, 0.5), "ms");
  m.Set("persist.first_query_ms", Percentile(first_query_ms, 0.5), "ms");

  // serve: a one-worker ServingRuntime replays the HTTP phase's schedule.
  xpwqo::Collection collection = OpenWarm(collection_dir);
  // Request ids run across segments, as in the HTTP phase.
  std::vector<Request> requests;
  std::vector<bool> sampled;
  for (const Segment& seg : segments) {
    for (size_t j = 0; j < seg.requests.size(); ++j) {
      requests.push_back(seg.requests[j]);
      sampled.push_back(j >= seg.warmup);
    }
  }
  const size_t n = requests.size();
  std::vector<int64_t> submit_start(n), submit_end(n), done(n, 0);
  std::vector<double> service_ms, queue_ms;
  std::vector<int64_t> service_ns(n, 0);
  {
    xpwqo::ServingRuntimeOptions options;
    options.num_threads = kXpathdThreads;
    options.max_queue = 64;
    options.scrub_interval = std::chrono::milliseconds(1000);
    xpwqo::ServingRuntime runtime(&collection, options);
    std::vector<std::optional<xpwqo::ServingRuntime::Ticket>> tickets(n);
    size_t i = 0;
    for (const Segment& seg : segments) {
      const size_t first = i;
      const int64_t start = NowNs() + 1'000'000;
      for (size_t j = 0; j < seg.requests.size(); ++j, ++i) {
        SleepUntilNs(start + seg.due_ns[j]);
        xpwqo::ServeRequest request;
        request.context = xpwqo::QueryContext::WithTimeout(
            std::chrono::milliseconds(kLatencyLimitMs));
        request.limit = requests[i].limit;
        submit_start[i] = NowNs();
        auto ticket = runtime.Submit(requests[i].xpath, std::move(request));
        submit_end[i] = NowNs();
        if (!ticket.ok()) throw std::runtime_error(ticket.status().ToString());
        int64_t* slot = &done[i];
        ticket->NotifyOnDone([slot] { *slot = NowNs(); });
        tickets[i] = std::move(ticket).value();
      }
      // Each segment drains before the next one starts, as over HTTP.
      for (size_t t = first; t < i; ++t) tickets[t]->Wait();
    }
    for (size_t i = 0; i < n; ++i) {
      const xpwqo::ServeResult& result = tickets[i]->Wait();
      if (!sampled[i]) continue;
      ++out.attempted;
      if (!result.status.ok()) {
        ++out.failed;
        continue;
      }
      Answer answer;
      for (const xpwqo::DocumentResult& row : result.documents) {
        const int shard = std::atoi(row.name.c_str() + 5);
        for (const xpwqo::NodeId id : row.nodes) answer.emplace_back(shard, id);
      }
      if (!oracle.Matches(requests[i], answer)) ++out.wrong;
      const int64_t latency_ns = result.latency.count() * 1000;
      service_ns[i] = latency_ns;
      const int32_t job = tracer->Add("serve.job", static_cast<int64_t>(i), -1,
                                      submit_start[i], done[i]);
      tracer->Add("serve.submit", static_cast<int64_t>(i), job, submit_start[i],
                  submit_end[i]);
      tracer->Add("serve.service", static_cast<int64_t>(i), job,
                  done[i] - latency_ns, done[i]);
      service_ms.push_back(latency_ns / 1e6);
      queue_ms.push_back((done[i] - submit_end[i] - latency_ns) / 1e6);
    }
    const xpwqo::ServingStatsSnapshot stats = runtime.Stats();
    m.Set("serve.shed", static_cast<double>(stats.shed), "count");
    m.Set("serve.deadline_exceeded", static_cast<double>(stats.deadline_exceeded), "count");
    m.Set("serve.doa_evicted", static_cast<double>(stats.doa_evicted), "count");
    runtime.Shutdown();
  }
  m.Set("serve.service_ms.p50", Percentile(service_ms, 0.5), "ms");
  m.Set("serve.service_ms.p99", Percentile(service_ms, 0.99), "ms");
  m.Set("serve.queue_ms.p50", Percentile(queue_ms, 0.5), "ms");
  m.Set("serve.queue_ms.p99", Percentile(queue_ms, 0.99), "ms");

  // core: the requests back to back, each run twice over the shards, once
  // traced and once untraced in alternating order; the untraced run
  // compiles outside the query cache so the traced run sees the cache as
  // xpathd would. The shard-loop difference is the tracing overhead.
  std::vector<double> compile_us, cursor_ms, first_result_ms, serve_self_ms;
  int64_t lookups = 0, hits = 0, visited = 0, jumps = 0, memo_hits = 0,
          returned = 0, checked = 0, rejected = 0, cursor_total_ns = 0;
  int64_t traced_ns = 0, untraced_ns = 0;
  int64_t served_cursor_ns = 0, served_service_ns = 0;
  size_t measured = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!sampled[i]) continue;
    ++measured;
    auto untraced = [&] {
      auto query = collection.Prepare(requests[i].xpath);
      if (!query.ok()) throw std::runtime_error(query.status().ToString());
      const int64_t t0 = NowNs();
      const Answer answer = RunShards(collection, *query, requests[i].limit);
      untraced_ns += NowNs() - t0;
      ++out.attempted;
      if (!oracle.Matches(requests[i], answer)) ++out.wrong;
    };
    if (i % 2 == 1) untraced();
    const CoreRun run =
        RunCore(collection, requests[i], static_cast<int64_t>(i), tracer);
    if (i % 2 == 0) untraced();
    traced_ns += run.loop_ns;
    ++out.attempted;
    if (!oracle.Matches(requests[i], run.answer)) ++out.wrong;
    ++lookups;
    hits += run.cache_hit ? 1 : 0;
    compile_us.push_back(run.compile_ns / 1e3);
    cursor_ms.push_back(run.cursor_ns / 1e6);
    if (run.first_result_ns >= 0) first_result_ms.push_back(run.first_result_ns / 1e6);
    if (service_ns[i] > 0) {
      serve_self_ms.push_back((service_ns[i] - run.cursor_ns) / 1e6);
      served_cursor_ns += run.cursor_ns;
      served_service_ns += service_ns[i];
    }
    visited += run.visited;
    jumps += run.jumps;
    memo_hits += run.memo_hits;
    returned += run.returned;
    checked += run.filter_checked;
    rejected += run.filter_rejected;
    cursor_total_ns += run.cursor_ns;
  }
  const double requests_measured = static_cast<double>(measured);

  m.Set("serve.self_ms.p50", Percentile(serve_self_ms, 0.5), "ms");
  m.Set("serve.cursor_share",
        Ratio(static_cast<double>(served_cursor_ns), static_cast<double>(served_service_ns)),
        "ratio");
  m.Set("core.compile_us.p50", Percentile(compile_us, 0.5), "us");
  m.Set("core.cache_lookups", static_cast<double>(lookups), "count");
  m.Set("core.cache_hit_ratio", Ratio(static_cast<double>(hits), static_cast<double>(lookups)), "ratio");
  m.Set("core.cursor_ms.p50", Percentile(cursor_ms, 0.5), "ms");
  m.Set("core.first_result_ms.p50", Percentile(first_result_ms, 0.5), "ms");
  m.Set("core.returned", static_cast<double>(returned), "count");
  m.Set("core.filter_checked", static_cast<double>(checked), "count");
  m.Set("core.filter_checked_per_returned", Ratio(static_cast<double>(checked), static_cast<double>(returned)), "ratio");
  m.Set("core.filter_reject_ratio", Ratio(static_cast<double>(rejected), static_cast<double>(checked)), "ratio");
  m.Set("asta.visited", static_cast<double>(visited), "count");
  m.Set("asta.visited_per_request", Ratio(static_cast<double>(visited), requests_measured), "nodes/req");
  m.Set("asta.visited_per_returned", Ratio(static_cast<double>(visited), static_cast<double>(returned)), "ratio");
  m.Set("asta.jumps_per_request", Ratio(static_cast<double>(jumps), requests_measured), "jumps/req");
  m.Set("asta.memo_hits_per_visited", Ratio(static_cast<double>(memo_hits), static_cast<double>(visited)), "ratio");
  m.Set("asta.ns_per_visited", Ratio(static_cast<double>(cursor_total_ns), static_cast<double>(visited)), "ns");
  m.Set("trace.overhead_pct", 100.0 * Ratio(static_cast<double>(traced_ns - untraced_ns), static_cast<double>(untraced_ns)), "%");
  return out;
}

}  // namespace e2ebench
