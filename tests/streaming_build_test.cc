// Streaming/batch parity: the event-driven ingestion pipeline must produce
// byte-identical structures to the legacy materialize-then-convert path —
// the same Document (all arrays), the same SuccinctTree (labels + topology),
// and the same LabelIndex postings — for every parser input shape, for
// chunked input split at arbitrary byte boundaries, and for a generated
// XMark document round-tripped through the serializer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "index/label_index.h"
#include "index/succinct_builder.h"
#include "index/succinct_tree.h"
#include "test_util.h"
#include "tree/builder.h"
#include "tree/event_sink.h"
#include "xmark/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xpwqo {
namespace {

using testing_util::BracketString;

/// The xml_parser_test input corpus (every construct the parser supports),
/// plus chunk-boundary stressors: multi-byte tokens straddling any split.
const char* const kCorpus[] = {
    "<a/>",
    "<a><b><c/><d/></b><e><f/></e></a>",
    "<a>hello <b>world</b></a>",
    "<a>\n  <b/>\n</a>",
    "<item id=\"i1\" class='x'><name/></item>",
    "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>",
    "<a>&#65;&#x42;&#233;</a>",
    "<a t=\"x&amp;y\"/>",
    "<!-- head --><a><!-- inner --><b/></a><!-- tail -->",
    "<?xml version=\"1.0\"?><a><?pi data?><b/></a>",
    "<!DOCTYPE a [<!ELEMENT a ANY>]><a/>",
    "<a><![CDATA[<not> &parsed;]]></a>",
    "<root><mid x=\"1\" y=\"2\">text &amp; more"
    "<deep><deeper>leaf</deeper></deep>"
    "<![CDATA[chunk ]] > boundary]]></mid><tail/></root>",
};

std::vector<XmlParseOptions> OptionCombos() {
  std::vector<XmlParseOptions> combos;
  for (bool skip_ws : {true, false}) {
    for (bool attrs : {true, false}) {
      for (bool text : {true, false}) {
        XmlParseOptions opt;
        opt.skip_whitespace_text = skip_ws;
        opt.keep_attributes = attrs;
        opt.keep_text = text;
        combos.push_back(opt);
      }
    }
  }
  return combos;
}

/// Exhaustive Document equality, including label *ids* (the pipelines must
/// intern in the same order), kinds, all links, and text payloads.
void ExpectSameDocument(const Document& a, const Document& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  EXPECT_EQ(a.alphabet().size(), b.alphabet().size()) << context;
  for (LabelId l = 0; l < std::min(a.alphabet().size(), b.alphabet().size());
       ++l) {
    EXPECT_EQ(a.alphabet().Name(l), b.alphabet().Name(l))
        << context << " label " << l;
  }
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.label(n), b.label(n)) << context << " node " << n;
    EXPECT_EQ(a.kind(n), b.kind(n)) << context << " node " << n;
    EXPECT_EQ(a.parent(n), b.parent(n)) << context << " node " << n;
    EXPECT_EQ(a.first_child(n), b.first_child(n)) << context << " node " << n;
    EXPECT_EQ(a.next_sibling(n), b.next_sibling(n))
        << context << " node " << n;
    EXPECT_EQ(a.subtree_size(n), b.subtree_size(n))
        << context << " node " << n;
    EXPECT_EQ(a.text(n), b.text(n)) << context << " node " << n;
  }
}

/// Topology + label equality of a streamed SuccinctTree vs the legacy
/// from-Document conversion.
void ExpectSameSuccinct(const SuccinctTree& streamed,
                        const SuccinctTree& legacy,
                        const std::string& context) {
  ASSERT_EQ(streamed.num_nodes(), legacy.num_nodes()) << context;
  EXPECT_TRUE(std::ranges::equal(streamed.label_array(),
                                 legacy.label_array()))
      << context;
  for (NodeId n = 0; n < streamed.num_nodes(); ++n) {
    EXPECT_EQ(streamed.parent(n), legacy.parent(n)) << context << " " << n;
    EXPECT_EQ(streamed.first_child(n), legacy.first_child(n))
        << context << " " << n;
    EXPECT_EQ(streamed.next_sibling(n), legacy.next_sibling(n))
        << context << " " << n;
    EXPECT_EQ(streamed.subtree_size(n), legacy.subtree_size(n))
        << context << " " << n;
  }
}

void ExpectSamePostings(const LabelIndex& streamed, const LabelIndex& legacy,
                        int alphabet_size, const std::string& context) {
  for (LabelId l = 0; l < alphabet_size; ++l) {
    EXPECT_EQ(streamed.Count(l), legacy.Count(l)) << context << " label " << l;
    EXPECT_EQ(streamed.Occurrences(l), legacy.Occurrences(l))
        << context << " label " << l;
  }
}

/// Runs the full streamed pipeline (TreeBuilder + SuccinctBuilder +
/// LabelPostingsBuilder off one TeeSink) and checks every product against
/// the legacy path for one (input, options) pair.
void CheckParity(std::string_view xml, const XmlParseOptions& opt,
                 const std::string& context) {
  auto legacy = ParseXmlString(xml, opt);
  // Streamed pipeline with all three sinks attached.
  TreeBuilder doc_builder;
  SuccinctBuilder tree_builder;
  LabelPostingsBuilder postings_builder;
  TeeSink tee{&doc_builder, &tree_builder, &postings_builder};
  Status st =
      ParseXmlEvents(xml, opt, doc_builder.alphabet().get(), &tee);
  ASSERT_EQ(legacy.ok(), st.ok()) << context << " legacy=" << legacy.status()
                                  << " events=" << st;
  if (!st.ok()) return;

  auto streamed_doc = doc_builder.Finish();
  ASSERT_TRUE(streamed_doc.ok()) << context << ": " << streamed_doc.status();
  ExpectSameDocument(*streamed_doc, *legacy, context);

  auto streamed_tree = std::move(tree_builder).Finish();
  ASSERT_TRUE(streamed_tree.ok()) << context << ": "
                                  << streamed_tree.status();
  SuccinctTree legacy_tree(*legacy);
  ExpectSameSuccinct(**streamed_tree, legacy_tree, context);

  LabelIndex streamed_postings(std::move(postings_builder));
  LabelIndex legacy_postings(*legacy);
  ExpectSamePostings(streamed_postings, legacy_postings,
                     legacy->alphabet().size(), context);
}

TEST(StreamingBuildTest, CorpusParityAcrossAllOptionCombos) {
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    for (const XmlParseOptions& opt : OptionCombos()) {
      CheckParity(kCorpus[i], opt,
                  "corpus[" + std::to_string(i) + "] skip_ws=" +
                      std::to_string(opt.skip_whitespace_text) + " attrs=" +
                      std::to_string(opt.keep_attributes) + " text=" +
                      std::to_string(opt.keep_text));
    }
  }
}

TEST(StreamingBuildTest, ErrorInputsAgree) {
  const char* const kBad[] = {
      "not xml",          "<a><b></b>",        "<a/><b/>",
      "<a>&unknown;</a>", "<a>&amp</a>",       "<a x=1/>",
      "<a><!-- oops</a>", "<a t=\"unclosed/>", "",
      "<a><![CDATA[x]]</a>",
  };
  for (const char* xml : kBad) {
    auto legacy = ParseXmlString(xml);
    TreeBuilder builder;
    Status st = ParseXmlEvents(xml, XmlParseOptions{},
                               builder.alphabet().get(), &builder);
    EXPECT_FALSE(legacy.ok()) << xml;
    EXPECT_FALSE(st.ok()) << xml;
    EXPECT_EQ(legacy.status().code(), st.code()) << xml;
  }
}

TEST(StreamingBuildTest, ChunkedParityAtEveryTinyBoundary) {
  // Split each corpus input into fixed-size chunks for every size in
  // 1..64 (plus one page-ish size); every multi-byte token ("</",
  // "<![CDATA[", "&amp;", "]]>", names, attribute values) ends up
  // straddling a boundary in some run, and every structural-scanner
  // refill path (window compaction, tape splicing, cross-chunk tape
  // lookups) gets exercised at sub-SIMD-block chunk sizes.
  std::vector<size_t> sizes;
  for (size_t c = 1; c <= 64; ++c) sizes.push_back(c);
  sizes.push_back(4096);
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    const std::string xml = kCorpus[i];
    Document whole = *ParseXmlString(xml);
    for (size_t chunk : sizes) {
      size_t off = 0;
      XmlChunkSource next = [&xml, &off, chunk]() -> std::string_view {
        const size_t n = std::min(chunk, xml.size() - off);
        std::string_view out(xml.data() + off, n);
        off += n;
        return out;
      };
      TreeBuilder builder;
      Status st = ParseXmlChunkEvents(next, XmlParseOptions{},
                                      builder.alphabet().get(), &builder);
      ASSERT_TRUE(st.ok()) << "corpus[" << i << "] chunk=" << chunk << ": "
                           << st;
      auto doc = builder.Finish();
      ASSERT_TRUE(doc.ok());
      ExpectSameDocument(*doc, whole,
                         "corpus[" + std::to_string(i) + "] chunk=" +
                             std::to_string(chunk));
    }
  }
}

TEST(StreamingBuildTest, ChunkedErrorsSurviveBoundaries) {
  const std::string xml = "<a><b>text &broken; more</b></a>";
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{5}}) {
    size_t off = 0;
    XmlChunkSource next = [&xml, &off, chunk]() -> std::string_view {
      const size_t n = std::min(chunk, xml.size() - off);
      std::string_view out(xml.data() + off, n);
      off += n;
      return out;
    };
    TreeBuilder builder;
    Status st = ParseXmlChunkEvents(next, XmlParseOptions{},
                                    builder.alphabet().get(), &builder);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "chunk=" << chunk;
  }
}

TEST(StreamingBuildTest, PipelinedFileParityWithStringParse) {
  // The pipelined file path (producer thread prescanning chunks) must
  // produce the identical Document — same label interning order, same
  // nodes — as the in-memory parse, for every corpus input and both with
  // chunks far smaller than a SIMD block and with one-chunk reads.
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    const std::string xml = kCorpus[i];
    const std::string path = ::testing::TempDir() +
                             "/streaming_pipe_corpus_" + std::to_string(i) +
                             ".xml";
    {
      std::ofstream out(path, std::ios::binary);
      out << xml;
    }
    Document whole = *ParseXmlString(xml);
    for (size_t chunk : {size_t{3}, size_t{64}, size_t{1} << 20}) {
      for (bool pipelined : {true, false}) {
        XmlParseOptions opt;
        opt.chunk_bytes = chunk;
        opt.pipelined_scan = pipelined;
        TreeBuilder builder;
        Status st = ParseXmlFileEvents(path, opt, builder.alphabet().get(),
                                       &builder);
        ASSERT_TRUE(st.ok()) << "corpus[" << i << "] chunk=" << chunk
                             << " pipelined=" << pipelined << ": " << st;
        auto doc = builder.Finish();
        ASSERT_TRUE(doc.ok());
        ExpectSameDocument(*doc, whole,
                           "corpus[" + std::to_string(i) + "] chunk=" +
                               std::to_string(chunk) + " pipelined=" +
                               std::to_string(pipelined));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(StreamingBuildTest, PipelinedFileErrorsMatchStringParse) {
  // Malformed shards must fail with the same code (and not hang the
  // producer thread) regardless of input mode.
  const char* const kBad[] = {
      "<a><b></b>", "<a>&unknown;</a>", "<a t=\"unclosed/>",
      "<a><![CDATA[x]]</a>", "",
  };
  for (size_t i = 0; i < std::size(kBad); ++i) {
    const std::string path = ::testing::TempDir() +
                             "/streaming_pipe_bad_" + std::to_string(i) +
                             ".xml";
    {
      std::ofstream out(path, std::ios::binary);
      out << kBad[i];
    }
    auto whole = ParseXmlString(kBad[i]);
    ASSERT_FALSE(whole.ok()) << kBad[i];
    for (bool pipelined : {true, false}) {
      XmlParseOptions opt;
      opt.chunk_bytes = 4;
      opt.pipelined_scan = pipelined;
      TreeBuilder builder;
      Status st =
          ParseXmlFileEvents(path, opt, builder.alphabet().get(), &builder);
      EXPECT_EQ(st.code(), whole.status().code())
          << "bad[" << i << "] pipelined=" << pipelined;
    }
    std::remove(path.c_str());
  }
}

TEST(StreamingBuildTest, XMarkRoundTripParity) {
  XMarkOptions opt;
  opt.scale = 0.004;
  Document generated = GenerateXMark(opt);
  const std::string xml = SerializeXml(generated);
  CheckParity(xml, XmlParseOptions{}, "xmark scale 0.004");
}

TEST(StreamingBuildTest, DeepDocumentStreams) {
  std::string xml;
  constexpr int kDepth = 50000;
  for (int i = 0; i < kDepth; ++i) xml += "<a>";
  for (int i = 0; i < kDepth; ++i) xml += "</a>";
  SuccinctBuilder tree_builder;
  Status st = ParseXmlEvents(xml, XmlParseOptions{},
                             std::make_shared<Alphabet>().get(),
                             &tree_builder);
  ASSERT_TRUE(st.ok()) << st;
  auto tree = std::move(tree_builder).Finish();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_nodes(), kDepth);
  EXPECT_EQ((*tree)->Depth(kDepth - 1), kDepth - 1);
}

TEST(StreamingBuildTest, SuccinctBuilderRejectsBadStreams) {
  {
    SuccinctBuilder b;
    EXPECT_FALSE(std::move(b).Finish().ok());  // empty
  }
  {
    SuccinctBuilder b;
    b.BeginElement(0);
    EXPECT_FALSE(std::move(b).Finish().ok());  // unbalanced
  }
}

TEST(StreamingBuildTest, EngineStreamedSuccinctMatchesMaterialized) {
  XMarkOptions opt;
  opt.scale = 0.003;
  Document doc = GenerateXMark(opt);
  const std::string xml = SerializeXml(doc);

  auto streamed =
      Engine::FromXmlString(xml, {.backend = TreeBackend::kSuccinct});
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_FALSE(streamed->has_document());

  Engine materialized = Engine::FromDocument(*ParseXmlString(xml));
  EXPECT_TRUE(materialized.has_document());
  EXPECT_EQ(streamed->num_nodes(), materialized.num_nodes());
  ExpectSameSuccinct(streamed->tree(), materialized.tree(),
                     "engine streamed");

  for (const char* q : {"//keyword", "/site/regions//item",
                        "//person[address]", "//listitem//keyword"}) {
    auto a = streamed->Run(q);
    auto b = materialized.Run(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a->nodes, b->nodes) << q;
  }

  // The baseline strategy needs the pointer Document, which a streamed
  // engine deliberately never builds.
  QueryOptions baseline;
  baseline.strategy = EvalStrategy::kBaseline;
  EXPECT_FALSE(streamed->Run("//keyword", baseline).ok());
  EXPECT_TRUE(materialized.Run("//keyword", baseline).ok());
}

TEST(StreamingBuildTest, EngineStreamedFileLoad) {
  XMarkOptions opt;
  opt.scale = 0.002;
  Document doc = GenerateXMark(opt);
  const std::string path =
      ::testing::TempDir() + "/streaming_build_test_xmark.xml";
  ASSERT_TRUE(WriteXmlFile(doc, path).ok());

  // Tiny chunks force many refills on the real file path.
  LoadOptions load;
  load.backend = TreeBackend::kSuccinct;
  load.parse.chunk_bytes = 512;
  auto streamed = Engine::FromXmlFile(path, load);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_FALSE(streamed->has_document());

  LoadOptions pointer_load;
  auto pointer = Engine::FromXmlFile(path, pointer_load);
  ASSERT_TRUE(pointer.ok()) << pointer.status();
  EXPECT_TRUE(pointer->has_document());
  EXPECT_EQ(streamed->num_nodes(), pointer->num_nodes());

  for (const char* q : {"//keyword", "//person//address"}) {
    auto a = streamed->Run(q);
    auto b = pointer->Run(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a->nodes, b->nodes) << q;
  }
  std::remove(path.c_str());
}

TEST(StreamingBuildTest, TreeBuilderReserveDoesNotChangeResults) {
  TreeBuilder plain;
  TreeBuilder reserved(std::make_shared<Alphabet>(), 1024);
  for (TreeBuilder* b : {&plain, &reserved}) {
    b->BeginElement("r");
    b->AddAttribute("id", "x");
    b->AddText("hello");
    b->BeginElement("c");
    b->EndElement();
    b->EndElement();
  }
  Document a = *plain.Finish();
  Document b = *reserved.Finish();
  ExpectSameDocument(a, b, "reserve");
  EXPECT_EQ(BracketString(a), BracketString(b));
}

}  // namespace
}  // namespace xpwqo
