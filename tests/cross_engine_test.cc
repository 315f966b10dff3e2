// Cross-engine stress test: randomized queries of the full supported
// fragment over randomized documents, evaluated by every engine in the
// repository. All engines must agree with the step-wise node-set baseline,
// which reads the pointer Document; every other engine runs over the
// succinct tree built from it:
//  - the ASTA evaluator in all four Figure 4 configurations (+ info-prop),
//  - the hybrid strategy (when applicable),
//  - minimal TDSTAs with full and jumping runs (when compilable),
//  - the ResultCursor over every strategy, fully drained, truncated and
//    sought (the streaming early-termination paths must emit exactly a
//    document-order prefix of the classic run).
#include <gtest/gtest.h>

#include <algorithm>

#include "asta/eval.h"
#include "baseline/nodeset_eval.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/prepared_query.h"
#include "query_gen.h"
#include "sta/minimize.h"
#include "sta/run.h"
#include "sta/topdown_jump.h"
#include "test_util.h"
#include "xmark/generator.h"
#include "xpath/compile.h"
#include "xpath/compile_sta.h"
#include "xpath/hybrid.h"
#include "xpath/parser.h"

namespace xpwqo {
namespace {

using testing_util::QueryGenOptions;
using testing_util::RandomQuery;
using testing_util::RandomTree;

/// Cursor-vs-Run parity: the full drain must equal the classic result, a
/// truncated drain must be its document-order prefix, and SeekGe must land
/// on the target, for every strategy.
void CheckCursors(const internal::CursorContext& ctx,
                  const PreparedQuery& query,
                  const std::vector<NodeId>& expect) {
  const EvalStrategy strategies[] = {
      EvalStrategy::kNaive,     EvalStrategy::kJumping,
      EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
      EvalStrategy::kHybrid,    EvalStrategy::kBaseline,
  };
  for (EvalStrategy s : strategies) {
    QueryOptions opts;
    opts.strategy = s;
    auto full_impl = internal::MakeCursorImpl(ctx, query, opts,
                                              /*allow_streaming=*/true);
    ASSERT_TRUE(full_impl.ok()) << EvalStrategyName(s);
    ResultCursor full(std::move(*full_impl));
    ASSERT_EQ(full.Drain(), expect) << "cursor " << EvalStrategyName(s);

    const size_t k = std::min<size_t>(3, expect.size() + 1);
    auto head_impl = internal::MakeCursorImpl(ctx, query, opts,
                                              /*allow_streaming=*/true);
    ASSERT_TRUE(head_impl.ok());
    ResultCursor head(std::move(*head_impl));
    std::vector<NodeId> first = head.Drain(k);
    ASSERT_EQ(first.size(), std::min(k, expect.size()));
    ASSERT_TRUE(std::equal(first.begin(), first.end(), expect.begin()))
        << "truncated cursor " << EvalStrategyName(s);

    if (!expect.empty()) {
      const NodeId target = expect[expect.size() / 2];
      auto seek_impl = internal::MakeCursorImpl(ctx, query, opts,
                                                /*allow_streaming=*/true);
      ASSERT_TRUE(seek_impl.ok());
      ResultCursor seek(std::move(*seek_impl));
      ASSERT_EQ(seek.SeekGe(target), target)
          << "SeekGe " << EvalStrategyName(s);
    }
  }
}

void CheckAllEngines(const Document& doc, const std::string& query) {
  SCOPED_TRACE(query);
  auto path = ParseXPath(query);
  ASSERT_TRUE(path.ok()) << path.status();
  auto expect = EvalNodeSetBaseline(*path, doc);
  ASSERT_TRUE(expect.ok()) << expect.status();

  auto asta = CompileToAsta(*path, doc.alphabet_ptr().get());
  ASSERT_TRUE(asta.ok()) << asta.status();
  SuccinctTree tree(doc);
  TreeIndex index(tree);
  const AstaEvalOptions configs[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, true},    {true, true, false},  {false, false, true},
  };
  for (const AstaEvalOptions& opts : configs) {
    AstaEvalResult r =
        EvalAsta(*asta, tree, opts.jumping ? &index : nullptr, opts);
    ASSERT_EQ(r.nodes, *expect)
        << "asta jump=" << opts.jumping << " memo=" << opts.memoize
        << " infoprop=" << opts.info_propagation;
  }

  if (IsHybridEvaluable(*path)) {
    auto plan = HybridPlan::Make(*path, doc.alphabet_ptr().get());
    ASSERT_TRUE(plan.ok());
    auto hybrid = plan->Run(tree, index);
    ASSERT_TRUE(hybrid.ok());
    ASSERT_EQ(*hybrid, *expect) << "hybrid";
  }

  if (IsTdstaCompilable(*path)) {
    auto sta = CompileToTdsta(*path, doc.alphabet_ptr().get());
    ASSERT_TRUE(sta.ok());
    StaRunResult full = TopDownRun(*sta, doc);
    ASSERT_EQ(full.selected, *expect) << "tdsta full run";
    Sta minimal = MinimizeTopDown(*sta);
    JumpRunResult jump = TopDownJumpRun(minimal, tree, index);
    ASSERT_EQ(jump.selected, *expect) << "tdsta jumping run";
    if (jump.accepting) {
      // LIMIT-k truncation: the early-stopped run must agree with the full
      // run's document-order prefix (meaningful on accepting runs only).
      JumpRunOptions limit;
      limit.max_selected = 2;
      JumpRunResult head = TopDownJumpRun(minimal, tree, index, limit);
      ASSERT_EQ(head.selected.size(), std::min<size_t>(2, expect->size()));
      ASSERT_TRUE(std::equal(head.selected.begin(), head.selected.end(),
                             expect->begin()))
          << "tdsta truncated jumping run";
    }
  }

  // The serving surface: cursors over every strategy; the context carries
  // the Document too, so kBaseline runs as well.
  auto prepared = PreparedQuery::Prepare(query, doc.alphabet_ptr());
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  internal::CursorContext ctx{&tree, &index, nullptr, &doc};
  CheckCursors(ctx, *prepared, *expect);
}

class CrossEngineRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineRandomTest, RandomQueriesOnRandomDocuments) {
  uint64_t seed = GetParam();
  Document doc =
      RandomTree(seed, {.num_nodes = static_cast<int>(120 + 40 * (seed % 5)),
                        .num_labels = 3,
                        .descend_prob = 0.35 + 0.05 * (seed % 4)});
  Random rng(seed * 77 + 5);
  for (int i = 0; i < 12; ++i) {
    CheckAllEngines(doc, RandomQuery(&rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineRandomTest,
                         ::testing::Range<uint64_t>(1, 21));

class CrossEngineJumpHeavyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEngineJumpHeavyTest, DescendantHeavyQueries) {
  // Descendant-dominated queries over label-skewed documents: nearly every
  // step compiles to a looping state, so the jumping evaluators spend the
  // run inside the label-index enumeration (the path the TreeIndex's BP
  // navigation has to get right).
  uint64_t seed = GetParam();
  Document doc =
      RandomTree(seed * 131 + 7,
                 {.num_nodes = static_cast<int>(200 + 60 * (seed % 4)),
                  .num_labels = 5,
                  .descend_prob = 0.45});
  Random rng(seed * 913 + 3);
  QueryGenOptions gen;
  gen.num_labels = 5;
  gen.max_steps = 4;
  gen.descendant_prob = 0.85;
  gen.star_prob = 0.04;
  for (int i = 0; i < 10; ++i) {
    CheckAllEngines(doc, RandomQuery(&rng, gen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineJumpHeavyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CrossEngineShapeTest, DeepChainDocument) {
  // A pathological 400-deep chain: exercises the explicit stacks.
  std::string spec = "r";
  for (int i = 0; i < 400; ++i) {
    spec = (i % 3 == 0 ? "a(" : (i % 3 == 1 ? "b(" : "c(")) + spec + ")";
  }
  Document doc = testing_util::TreeOf(spec);
  for (const char* q : {"//a//b//c", "//a[.//b]", "//c[not(a)]", "//b/c"}) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, WideFanoutDocument) {
  // 5000 children under one node: sibling chains must not recurse.
  std::string spec = "r(";
  for (int i = 0; i < 5000; ++i) {
    spec += (i % 7 == 0) ? "a(b)," : "c,";
  }
  spec += "a)";
  Document doc = testing_util::TreeOf(spec);
  for (const char* q :
       {"//a/b", "//a[b]", "/r/a", "//c/following-sibling::a"}) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, XMarkQueriesBeyondTheWorkload) {
  XMarkOptions opt;
  opt.scale = 0.004;
  Document doc = GenerateXMark(opt);
  const char* queries[] = {
      "//person[profile]/name",
      "//open_auction[bidder]//increase",
      "//item[not(mailbox/mail)]",
      "/site/*/*/name",
      "//annotation[description/parlist or description/text]",
      "//mail[date and text]",
      "//listitem//listitem",
      "//parlist[listitem[parlist]]",
      "//text[keyword[emph]]",
      "//person[address and not(homepage)]",
  };
  for (const char* q : queries) {
    CheckAllEngines(doc, q);
  }
}

TEST(CrossEngineShapeTest, RandomQueriesOnXMark) {
  XMarkOptions opt;
  opt.scale = 0.003;
  Document doc = GenerateXMark(opt);
  Random rng(2026);
  QueryGenOptions qopt;
  qopt.num_labels = 0;  // unused below; we substitute XMark labels
  for (int i = 0; i < 25; ++i) {
    // Generate with letter labels then substitute XMark element names so
    // the queries hit real structure.
    QueryGenOptions gen;
    gen.num_labels = 4;
    std::string q = RandomQuery(&rng, gen);
    const char* subst[4] = {"item", "keyword", "listitem", "text"};
    std::string mapped;
    auto is_word = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '-';
    };
    for (size_t j = 0; j < q.size(); ++j) {
      char c = q[j];
      bool isolated = c >= 'a' && c <= 'd' &&
                      (j == 0 || !is_word(q[j - 1])) &&
                      (j + 1 == q.size() || !is_word(q[j + 1]));
      if (isolated) {
        mapped += subst[c - 'a'];  // a single-letter label, not a keyword
      } else {
        mapped += c;
      }
    }
    CheckAllEngines(doc, mapped);
  }
}

}  // namespace
}  // namespace xpwqo
