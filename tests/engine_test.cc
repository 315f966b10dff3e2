#include "core/engine.h"

#include <gtest/gtest.h>

#include "xmark/generator.h"
#include "xmark/workload.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

constexpr const char* kXml = R"(<site>
  <regions><europe><item id="i1"><mailbox><mail><text>
    <keyword>alpha</keyword></text></mail></mailbox></item></europe></regions>
  <people><person><address/><phone/></person><person/></people>
</site>)";

TEST(EngineTest, FromXmlStringAndRun) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto r = engine->Run("/site/regions");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->nodes.size(), 1u);
  EXPECT_EQ(engine->document().LabelName(r->nodes[0]), "regions");
}

TEST(EngineTest, CompiledQueryReuse) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok());
  auto query = engine->Compile("//keyword");
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 3; ++i) {
    auto r = engine->Run(*query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->nodes.size(), 1u);
  }
  EXPECT_EQ(query->ToString(), "/descendant::keyword");
}

TEST(EngineTest, AllStrategiesAgree) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok());
  const EvalStrategy strategies[] = {
      EvalStrategy::kNaive,     EvalStrategy::kJumping,
      EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
      EvalStrategy::kHybrid,    EvalStrategy::kBaseline,
  };
  for (const char* q :
       {"//keyword", "/site/people/person[address and phone]",
        "//person[not(address)]", "//mail//keyword"}) {
    std::vector<NodeId> first;
    for (EvalStrategy s : strategies) {
      QueryOptions opts;
      opts.strategy = s;
      auto r = engine->Run(q, opts);
      ASSERT_TRUE(r.ok()) << q << " " << EvalStrategyName(s);
      if (s == EvalStrategy::kNaive) {
        first = r->nodes;
      } else {
        EXPECT_EQ(r->nodes, first) << q << " " << EvalStrategyName(s);
      }
    }
  }
}

TEST(EngineTest, HybridFlagOnlySetWhenApplicable) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok());
  QueryOptions opts;
  opts.strategy = EvalStrategy::kHybrid;
  auto hybrid = engine->Run("//mail//keyword", opts);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_TRUE(hybrid->used_hybrid);
  auto fallback = engine->Run("//person[address]", opts);
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback->used_hybrid);
  EXPECT_EQ(fallback->nodes.size(), 1u);
}

TEST(EngineTest, ParseErrorsPropagate) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Run("//a[").ok());
  EXPECT_FALSE(engine->Compile("").ok());
}

TEST(EngineTest, BadXmlPropagates) {
  EXPECT_FALSE(Engine::FromXmlString("<a><b></a>").ok());
  EXPECT_EQ(Engine::FromXmlFile("/no/such/file.xml").status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, FromDocumentWorks) {
  XMarkOptions opt;
  opt.scale = 0.002;
  Engine engine = Engine::FromDocument(GenerateXMark(opt));
  auto r = engine.Run("/site/regions/europe/item");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->nodes.size(), 0u);
  EXPECT_TRUE(engine.has_document());
  EXPECT_EQ(engine.num_nodes(), engine.document().num_nodes());
  EXPECT_NE(engine.text_store(), nullptr);
}

TEST(EngineTest, SuccinctBackendAgreesOnEveryStrategy) {
  // A streamed load, which keeps no Document, against the baseline on a
  // Document-keeping load of the same XML.
  XMarkOptions opt;
  opt.scale = 0.002;
  Document doc = GenerateXMark(opt);
  auto succinct = Engine::FromXmlString(SerializeXml(doc),
                                        {.backend = TreeBackend::kSuccinct});
  ASSERT_TRUE(succinct.ok()) << succinct.status();
  EXPECT_FALSE(succinct->has_document());
  Engine pointer = Engine::FromDocument(std::move(doc));
  ASSERT_EQ(succinct->num_nodes(), pointer.num_nodes());
  const EvalStrategy strategies[] = {
      EvalStrategy::kNaive,     EvalStrategy::kJumping,
      EvalStrategy::kMemoized,  EvalStrategy::kOptimized,
      EvalStrategy::kHybrid,
  };
  QueryOptions baseline;
  baseline.strategy = EvalStrategy::kBaseline;
  for (const WorkloadQuery& wq : Figure2Workload()) {
    auto expect = pointer.Run(wq.xpath, baseline);
    ASSERT_TRUE(expect.ok()) << wq.id;
    for (EvalStrategy s : strategies) {
      QueryOptions opts;
      opts.strategy = s;
      auto r = succinct->Run(wq.xpath, opts);
      ASSERT_TRUE(r.ok()) << wq.id << " " << EvalStrategyName(s);
      EXPECT_EQ(r->nodes, expect->nodes)
          << wq.id << " " << EvalStrategyName(s);
    }
  }
}

TEST(EngineTest, StatsPopulated) {
  auto engine = Engine::FromXmlString(kXml);
  ASSERT_TRUE(engine.ok());
  auto r = engine->Run("//keyword");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.nodes_visited, 0);
}

TEST(EngineTest, StrategyNames) {
  EXPECT_STREQ(EvalStrategyName(EvalStrategy::kOptimized), "optimized");
  EXPECT_STREQ(EvalStrategyName(EvalStrategy::kBaseline), "baseline");
}

// ---------------------------------------------------------------------------
// The headline cross-engine property: every strategy returns identical
// results for the paper's full Figure 2 workload on an XMark document.

class WorkloadAgreementTest : public ::testing::TestWithParam<int> {
 public:
  static const Engine& SharedEngine() {
    static Engine* engine = [] {
      XMarkOptions opt;
      opt.scale = 0.01;
      return new Engine(Engine::FromDocument(GenerateXMark(opt)));
    }();
    return *engine;
  }
};

TEST_P(WorkloadAgreementTest, AllStrategiesAgreeOnXMark) {
  const WorkloadQuery& wq = Figure2Workload()[GetParam()];
  const Engine& engine = SharedEngine();
  QueryOptions base;
  base.strategy = EvalStrategy::kBaseline;
  auto expect = engine.Run(wq.xpath, base);
  ASSERT_TRUE(expect.ok()) << wq.id << ": " << expect.status();
  for (EvalStrategy s :
       {EvalStrategy::kNaive, EvalStrategy::kJumping, EvalStrategy::kMemoized,
        EvalStrategy::kOptimized, EvalStrategy::kHybrid}) {
    QueryOptions opts;
    opts.strategy = s;
    auto r = engine.Run(wq.xpath, opts);
    ASSERT_TRUE(r.ok()) << wq.id;
    EXPECT_EQ(r->nodes, expect->nodes)
        << wq.id << " strategy " << EvalStrategyName(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Figure2, WorkloadAgreementTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace xpwqo
