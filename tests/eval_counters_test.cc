// Work-counter pins for the automaton evaluators. Every evaluator change
// must visit the same nodes, take the same jumps and build the same memo
// tables; results staying correct is not enough (a lost jump or a
// memoization miss only shows in these numbers). The table holds, for each
// query × strategy on one XMark document, the counters of a full run and of
// a LIMIT-7 cursor. A mismatch prints the measured row in table syntax.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "xmark/generator.h"
#include "xmark/workload.h"

namespace xpwqo {
namespace {

constexpr size_t kLimit = 7;

struct Counters {
  int64_t size;  // result nodes (LIMIT-7: nodes returned)
  int64_t visited;
  int64_t jumps;
  int64_t step_entries;
  int64_t eval_entries;
  int64_t memo_hits;
  int64_t interned_sets;
  int64_t hybrid_visited;
  bool operator==(const Counters&) const = default;
};

struct Expect {
  const char* id;
  EvalStrategy strategy;
  Counters full;
  Counters limit;
};

constexpr EvalStrategy kNaive = EvalStrategy::kNaive;
constexpr EvalStrategy kJumping = EvalStrategy::kJumping;
constexpr EvalStrategy kMemoized = EvalStrategy::kMemoized;
constexpr EvalStrategy kOptimized = EvalStrategy::kOptimized;
constexpr EvalStrategy kHybrid = EvalStrategy::kHybrid;

// clang-format off
const Expect kExpected[] = {
    // id, strategy,
    //   full:    {size, visited, jumps, step_entries, eval_entries, memo_hits,
    //            interned_sets, hybrid_visited},
    //   LIMIT-7: {the same counters of the cursor}
    {"Q01", kNaive, {1, 7, 0, 0, 0, 0, 3, 0},
     {1, 7, 0, 0, 0, 0, 3, 0}},
    {"Q01", kJumping, {1, 2, 1, 0, 0, 0, 3, 0},
     {1, 2, 1, 0, 0, 0, 3, 0}},
    {"Q01", kMemoized, {1, 7, 0, 7, 7, 0, 3, 0},
     {1, 7, 0, 7, 7, 0, 3, 0}},
    {"Q01", kOptimized, {1, 2, 1, 2, 2, 0, 3, 0},
     {1, 2, 1, 2, 2, 0, 3, 0}},
    {"Q01", kHybrid, {1, 2, 1, 2, 2, 0, 3, 0},
     {1, 2, 1, 2, 2, 0, 3, 0}},
    {"Q02", kNaive, {57, 1992, 0, 0, 0, 0, 9, 0},
     {7, 1992, 0, 0, 0, 0, 9, 0}},
    {"Q02", kJumping, {57, 516, 430, 0, 0, 0, 9, 0},
     {7, 516, 430, 0, 0, 0, 9, 0}},
    {"Q02", kMemoized, {57, 1992, 0, 32, 54, 3898, 9, 0},
     {7, 1992, 0, 32, 54, 3898, 9, 0}},
    {"Q02", kOptimized, {57, 516, 430, 8, 16, 1008, 9, 0},
     {7, 516, 430, 8, 16, 1008, 9, 0}},
    {"Q02", kHybrid, {57, 516, 430, 8, 16, 1008, 9, 0},
     {7, 516, 430, 8, 16, 1008, 9, 0}},
    {"Q03", kNaive, {84, 1352, 0, 0, 0, 0, 8, 0},
     {7, 1352, 0, 0, 0, 0, 8, 0}},
    {"Q03", kJumping, {84, 411, 355, 0, 0, 0, 8, 0},
     {7, 411, 355, 0, 0, 0, 8, 0}},
    {"Q03", kMemoized, {84, 1352, 0, 22, 36, 2646, 8, 0},
     {7, 1352, 0, 22, 36, 2646, 8, 0}},
    {"Q03", kOptimized, {84, 411, 355, 7, 13, 802, 8, 0},
     {7, 411, 355, 7, 13, 802, 8, 0}},
    {"Q03", kHybrid, {84, 411, 355, 7, 13, 802, 8, 0},
     {7, 411, 355, 7, 13, 802, 8, 0}},
    {"Q04", kNaive, {215, 228, 0, 0, 0, 0, 5, 0},
     {7, 228, 0, 0, 0, 0, 5, 0}},
    {"Q04", kJumping, {215, 223, 1, 0, 0, 0, 5, 0},
     {7, 223, 1, 0, 0, 0, 5, 0}},
    {"Q04", kMemoized, {215, 228, 0, 14, 15, 427, 5, 0},
     {7, 228, 0, 14, 15, 427, 5, 0}},
    {"Q04", kOptimized, {215, 223, 1, 9, 10, 427, 5, 0},
     {7, 223, 1, 9, 10, 427, 5, 0}},
    {"Q04", kHybrid, {215, 223, 1, 9, 10, 427, 5, 0},
     {7, 223, 1, 9, 10, 427, 5, 0}},
    {"Q05", kNaive, {311, 26382, 0, 0, 0, 0, 2, 0},
     {7, 26382, 0, 0, 0, 0, 2, 0}},
    {"Q05", kJumping, {311, 1496, 1974, 0, 0, 0, 2, 0},
     {7, 65, 80, 0, 0, 0, 2, 0}},
    {"Q05", kMemoized, {311, 26382, 0, 81, 125, 52558, 4, 0},
     {7, 26382, 0, 81, 125, 52558, 4, 0}},
    {"Q05", kOptimized, {311, 1496, 1974, 3, 14, 2975, 4, 0},
     {7, 65, 80, 3, 11, 116, 4, 0}},
    {"Q05", kHybrid, {311, 0, 0, 0, 0, 0, 0, 2685},
     {7, 0, 0, 0, 0, 0, 0, 37}},
    {"Q06", kNaive, {337, 11276, 0, 0, 0, 0, 6, 0},
     {7, 11276, 0, 0, 0, 0, 6, 0}},
    {"Q06", kJumping, {337, 560, 1016, 0, 0, 0, 6, 0},
     {7, 560, 1016, 0, 0, 0, 6, 0}},
    {"Q06", kMemoized, {337, 11276, 0, 35, 64, 22453, 6, 0},
     {7, 11276, 0, 35, 64, 22453, 6, 0}},
    {"Q06", kOptimized, {337, 560, 1016, 10, 14, 1096, 6, 0},
     {7, 560, 1016, 10, 14, 1096, 6, 0}},
    {"Q06", kHybrid, {337, 560, 1016, 10, 14, 1096, 6, 0},
     {7, 560, 1016, 10, 14, 1096, 6, 0}},
    {"Q07", kNaive, {77, 1894, 0, 0, 0, 0, 11, 0},
     {7, 1894, 0, 0, 0, 0, 11, 0}},
    {"Q07", kJumping, {77, 589, 451, 0, 0, 0, 11, 0},
     {7, 589, 451, 0, 0, 0, 11, 0}},
    {"Q07", kMemoized, {77, 1894, 0, 39, 74, 3675, 11, 0},
     {7, 1894, 0, 39, 74, 3675, 11, 0}},
    {"Q07", kOptimized, {77, 589, 451, 10, 24, 1144, 11, 0},
     {7, 589, 451, 10, 24, 1144, 11, 0}},
    {"Q07", kHybrid, {77, 589, 451, 10, 24, 1144, 11, 0},
     {7, 589, 451, 10, 24, 1144, 11, 0}},
    {"Q08", kNaive, {210, 26382, 0, 0, 0, 0, 5, 0},
     {7, 26382, 0, 0, 0, 0, 5, 0}},
    {"Q08", kJumping, {210, 1992, 2008, 0, 0, 0, 5, 0},
     {7, 1992, 2008, 0, 0, 0, 5, 0}},
    {"Q08", kMemoized, {210, 26382, 0, 93, 238, 52433, 13, 0},
     {7, 26382, 0, 93, 238, 52433, 13, 0}},
    {"Q08", kOptimized, {210, 1991, 2006, 10, 132, 3840, 13, 0},
     {7, 1991, 2006, 10, 132, 3840, 13, 0}},
    {"Q08", kHybrid, {210, 1991, 2006, 10, 132, 3840, 13, 0},
     {7, 1991, 2006, 10, 132, 3840, 13, 0}},
    {"Q09", kNaive, {309, 3427, 0, 0, 0, 0, 8, 0},
     {7, 3427, 0, 0, 0, 0, 8, 0}},
    {"Q09", kJumping, {309, 1023, 541, 0, 0, 0, 8, 0},
     {7, 1023, 541, 0, 0, 0, 8, 0}},
    {"Q09", kMemoized, {309, 3427, 0, 28, 58, 6768, 10, 0},
     {7, 3427, 0, 28, 58, 6768, 10, 0}},
    {"Q09", kOptimized, {309, 1023, 541, 12, 24, 2010, 10, 0},
     {7, 1023, 541, 12, 24, 2010, 10, 0}},
    {"Q09", kHybrid, {309, 1023, 541, 12, 24, 2010, 10, 0},
     {7, 1023, 541, 12, 24, 2010, 10, 0}},
    {"Q10", kNaive, {1, 24342, 0, 0, 0, 0, 3, 0},
     {1, 24342, 0, 0, 0, 0, 3, 0}},
    {"Q10", kJumping, {1, 2, 1, 0, 0, 0, 3, 0},
     {1, 2, 1, 0, 0, 0, 3, 0}},
    {"Q10", kMemoized, {1, 24342, 0, 74, 119, 48491, 3, 0},
     {1, 24342, 0, 74, 119, 48491, 3, 0}},
    {"Q10", kOptimized, {1, 2, 1, 2, 2, 0, 3, 0},
     {1, 2, 1, 2, 2, 0, 3, 0}},
    {"Q10", kHybrid, {1, 2, 1, 2, 2, 0, 3, 0},
     {1, 2, 1, 2, 2, 0, 3, 0}},
    {"Q11", kNaive, {543, 26382, 0, 0, 0, 0, 3, 0},
     {7, 26382, 0, 0, 0, 0, 3, 0}},
    {"Q11", kJumping, {543, 544, 1492, 0, 0, 0, 3, 0},
     {7, 544, 1492, 0, 0, 0, 3, 0}},
    {"Q11", kMemoized, {543, 26382, 0, 74, 120, 52570, 3, 0},
     {7, 26382, 0, 74, 120, 52570, 3, 0}},
    {"Q11", kOptimized, {543, 544, 1492, 2, 3, 1083, 3, 0},
     {7, 544, 1492, 2, 3, 1083, 3, 0}},
    {"Q11", kHybrid, {543, 544, 1492, 2, 3, 1083, 3, 0},
     {7, 544, 1492, 2, 3, 1083, 3, 0}},
    {"Q12", kNaive, {543, 26382, 0, 0, 0, 0, 4, 0},
     {7, 26382, 0, 0, 0, 0, 4, 0}},
    {"Q12", kJumping, {543, 544, 1492, 0, 0, 0, 4, 0},
     {7, 544, 1492, 0, 0, 0, 4, 0}},
    {"Q12", kMemoized, {543, 26382, 0, 78, 128, 52558, 4, 0},
     {7, 26382, 0, 78, 128, 52558, 4, 0}},
    {"Q12", kOptimized, {543, 544, 1492, 3, 5, 1080, 4, 0},
     {7, 544, 1492, 3, 5, 1080, 4, 0}},
    {"Q12", kHybrid, {543, 544, 1492, 3, 5, 1080, 4, 0},
     {7, 544, 1492, 3, 5, 1080, 4, 0}},
    {"Q13", kNaive, {543, 26382, 0, 0, 0, 0, 5, 0},
     {7, 26382, 0, 0, 0, 0, 5, 0}},
    {"Q13", kJumping, {543, 1131, 993, 0, 0, 0, 5, 0},
     {7, 1131, 993, 0, 0, 0, 5, 0}},
    {"Q13", kMemoized, {543, 26382, 0, 80, 194, 52490, 8, 0},
     {7, 26382, 0, 80, 194, 52490, 8, 0}},
    {"Q13", kOptimized, {543, 1131, 993, 5, 15, 2242, 7, 0},
     {7, 1131, 993, 5, 15, 2242, 7, 0}},
    {"Q13", kHybrid, {543, 1131, 993, 5, 15, 2242, 7, 0},
     {7, 1131, 993, 5, 15, 2242, 7, 0}},
    {"Q14", kNaive, {543, 26382, 0, 0, 0, 0, 4, 0},
     {7, 26382, 0, 0, 0, 0, 4, 0}},
    {"Q14", kJumping, {543, 588, 1536, 0, 0, 0, 4, 0},
     {7, 588, 1536, 0, 0, 0, 4, 0}},
    {"Q14", kMemoized, {543, 26382, 0, 76, 180, 52508, 6, 0},
     {7, 26382, 0, 76, 180, 52508, 6, 0}},
    {"Q14", kOptimized, {543, 588, 1536, 3, 8, 1165, 6, 0},
     {7, 588, 1536, 3, 8, 1165, 6, 0}},
    {"Q14", kHybrid, {543, 588, 1536, 3, 8, 1165, 6, 0},
     {7, 588, 1536, 3, 8, 1165, 6, 0}},
    {"Q15", kNaive, {543, 26382, 0, 0, 0, 0, 4, 0},
     {7, 26382, 0, 0, 0, 0, 4, 0}},
    {"Q15", kJumping, {543, 26382, 0, 0, 0, 0, 4, 0},
     {7, 26382, 0, 0, 0, 0, 4, 0}},
    {"Q15", kMemoized, {543, 26382, 0, 93, 217, 52454, 9, 0},
     {7, 26382, 0, 93, 217, 52454, 9, 0}},
    {"Q15", kOptimized, {543, 562, 1493, 15, 17, 1092, 8, 0},
     {7, 562, 1493, 15, 17, 1092, 8, 0}},
    {"Q15", kHybrid, {543, 562, 1493, 15, 17, 1092, 8, 0},
     {7, 562, 1493, 15, 17, 1092, 8, 0}},
    {"P1", kNaive, {1, 26382, 0, 0, 0, 0, 1, 0},
     {1, 26382, 0, 0, 0, 0, 1, 0}},
    {"P1", kJumping, {1, 255, 256, 0, 0, 0, 1, 0},
     {1, 255, 257, 0, 0, 0, 1, 0}},
    {"P1", kMemoized, {1, 26382, 0, 74, 75, 52615, 2, 0},
     {1, 26382, 0, 74, 75, 52615, 2, 0}},
    {"P1", kOptimized, {1, 255, 256, 1, 2, 507, 2, 0},
     {1, 255, 257, 1, 2, 507, 2, 0}},
    {"P1", kHybrid, {1, 0, 0, 0, 0, 0, 0, 255},
     {1, 0, 0, 0, 0, 0, 0, 255}},
    {"P2", kNaive, {28, 26382, 0, 0, 0, 0, 1, 0},
     {7, 26382, 0, 0, 0, 0, 1, 0}},
    {"P2", kJumping, {28, 543, 1492, 0, 0, 0, 1, 0},
     {7, 114, 317, 0, 0, 0, 1, 0}},
    {"P2", kMemoized, {28, 26382, 0, 74, 120, 52570, 2, 0},
     {7, 26382, 0, 74, 120, 52570, 2, 0}},
    {"P2", kOptimized, {28, 543, 1492, 1, 2, 1083, 2, 0},
     {7, 114, 317, 1, 2, 225, 2, 0}},
    {"P2", kHybrid, {28, 0, 0, 0, 0, 0, 0, 543},
     {7, 0, 0, 0, 0, 0, 0, 114}},
    {"P3", kNaive, {14, 26382, 0, 0, 0, 0, 1, 0},
     {7, 26382, 0, 0, 0, 0, 1, 0}},
    {"P3", kJumping, {14, 215, 221, 0, 0, 0, 1, 0},
     {7, 135, 139, 0, 0, 0, 1, 0}},
    {"P3", kMemoized, {14, 26382, 0, 74, 75, 52615, 2, 0},
     {7, 26382, 0, 74, 75, 52615, 2, 0}},
    {"P3", kOptimized, {14, 215, 221, 1, 2, 427, 2, 0},
     {7, 135, 139, 1, 2, 267, 2, 0}},
    {"P3", kHybrid, {14, 0, 0, 0, 0, 0, 0, 215},
     {7, 0, 0, 0, 0, 0, 0, 135}},
    {"P4", kNaive, {1185, 26382, 0, 0, 0, 0, 2, 0},
     {7, 26382, 0, 0, 0, 0, 2, 0}},
    {"P4", kJumping, {1185, 1666, 1038, 0, 0, 0, 2, 0},
     {7, 14, 8, 0, 0, 0, 2, 0}},
    {"P4", kMemoized, {1185, 26382, 0, 80, 114, 52570, 4, 0},
     {7, 26382, 0, 80, 114, 52570, 4, 0}},
    {"P4", kOptimized, {1185, 1666, 1038, 3, 10, 3319, 4, 0},
     {7, 14, 8, 3, 8, 17, 4, 0}},
    {"P4", kHybrid, {1185, 0, 0, 0, 0, 0, 0, 1666},
     {7, 0, 0, 0, 0, 0, 0, 14}},
    {"P5", kNaive, {168, 26382, 0, 0, 0, 0, 3, 0},
     {7, 26382, 0, 0, 0, 0, 3, 0}},
    {"P5", kJumping, {168, 1763, 2492, 0, 0, 0, 3, 0},
     {7, 1763, 2492, 0, 0, 0, 3, 0}},
    {"P5", kMemoized, {168, 26382, 0, 85, 174, 52505, 7, 0},
     {7, 26382, 0, 85, 174, 52505, 7, 0}},
    {"P5", kOptimized, {168, 1762, 2490, 6, 61, 3457, 7, 0},
     {7, 1762, 2490, 6, 61, 3457, 7, 0}},
    {"P5", kHybrid, {168, 1762, 2490, 6, 61, 3457, 7, 0},
     {7, 1762, 2490, 6, 61, 3457, 7, 0}},
};
// clang-format on

struct NamedQuery {
  std::string id;
  std::string xpath;
};

std::vector<NamedQuery> Queries() {
  std::vector<NamedQuery> out;
  for (const WorkloadQuery& q : Figure2Workload()) {
    out.push_back({q.id, q.xpath});
  }
  out.push_back({"P1", "//person[@id='person3']"});
  out.push_back({"P2", "//keyword[contains(text(),'eagle')]"});
  out.push_back({"P3", "//item[contains(.//keyword/text(),'eagle')]"});
  out.push_back({"P4", "//parlist//listitem"});
  out.push_back({"P5", "//listitem[not(.//emph)]//keyword"});
  return out;
}

const Engine& SharedEngine() {
  static Engine* engine = [] {
    XMarkOptions opt;
    opt.scale = 0.01;
    return new Engine(Engine::FromDocument(GenerateXMark(opt)));
  }();
  return *engine;
}

Counters FromStats(int64_t size, const AstaEvalStats& s,
                   const HybridStats& h) {
  return {size,
          s.nodes_visited,
          s.jumps,
          s.memo_step_entries,
          s.memo_eval_entries,
          s.memo_hits,
          s.interned_sets,
          h.nodes_visited};
}

const char* StrategyConstant(EvalStrategy s) {
  switch (s) {
    case EvalStrategy::kNaive:
      return "kNaive";
    case EvalStrategy::kJumping:
      return "kJumping";
    case EvalStrategy::kMemoized:
      return "kMemoized";
    case EvalStrategy::kOptimized:
      return "kOptimized";
    case EvalStrategy::kHybrid:
      return "kHybrid";
    default:
      return "?";
  }
}

std::string Format(const Counters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
                ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64 "}",
                c.size, c.visited, c.jumps, c.step_entries, c.eval_entries,
                c.memo_hits, c.interned_sets, c.hybrid_visited);
  return buf;
}

const Expect* FindExpect(const std::string& id, EvalStrategy s) {
  for (const Expect& e : kExpected) {
    if (id == e.id && e.strategy == s) return &e;
  }
  return nullptr;
}

TEST(EvalCountersTest, FullRunsAndLimitCursorsKeepTheirCounters) {
  const Engine& engine = SharedEngine();
  int checked = 0;
  for (const NamedQuery& q : Queries()) {
    for (EvalStrategy s : {kNaive, kJumping, kMemoized, kOptimized, kHybrid}) {
      QueryOptions opts;
      opts.strategy = s;
      auto full = engine.Run(q.xpath, opts);
      ASSERT_TRUE(full.ok()) << q.id << ": " << full.status();
      const Counters got_full =
          FromStats(static_cast<int64_t>(full->nodes.size()), full->stats,
                    full->hybrid);

      auto cursor = engine.OpenCursor(q.xpath, opts);
      ASSERT_TRUE(cursor.ok()) << q.id << ": " << cursor.status();
      const std::vector<NodeId> head = cursor->Drain(kLimit);
      const CursorStats cs = cursor->TakeStats();
      const Counters got_limit =
          FromStats(static_cast<int64_t>(head.size()), cs.eval, cs.hybrid);

      const Expect* want = FindExpect(q.id, s);
      const bool same = want != nullptr && want->full == got_full &&
                        want->limit == got_limit;
      EXPECT_TRUE(same) << "measured row:\n    {\"" << q.id << "\", "
                        << StrategyConstant(s) << ", " << Format(got_full)
                        << ",\n     " << Format(got_limit) << "},";
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(std::size(kExpected)));
}

}  // namespace
}  // namespace xpwqo
