#include "tree/document.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tree/builder.h"

namespace xpwqo {
namespace {

using testing_util::BracketString;
using testing_util::RandomTree;
using testing_util::TreeOf;

TEST(TreeBuilderTest, SingleNode) {
  Document d = TreeOf("a");
  EXPECT_EQ(d.num_nodes(), 1);
  EXPECT_EQ(d.root(), 0);
  EXPECT_EQ(d.LabelName(0), "a");
  EXPECT_EQ(d.parent(0), kNullNode);
  EXPECT_EQ(d.first_child(0), kNullNode);
  EXPECT_EQ(d.next_sibling(0), kNullNode);
  EXPECT_EQ(d.subtree_size(0), 1);
}

TEST(TreeBuilderTest, BracketRoundTrip) {
  const char* specs[] = {"a", "a(b)", "a(b,c)", "a(b(c,d),e(f))",
                         "r(x(x(x(x))))"};
  for (const char* spec : specs) {
    EXPECT_EQ(BracketString(TreeOf(spec)), spec) << spec;
  }
}

TEST(TreeBuilderTest, PreorderIdsAndLinks) {
  //     a0
  //   b1   e4
  //  c2 d3   f5
  Document d = TreeOf("a(b(c,d),e(f))");
  ASSERT_EQ(d.num_nodes(), 6);
  EXPECT_EQ(d.LabelName(0), "a");
  EXPECT_EQ(d.LabelName(1), "b");
  EXPECT_EQ(d.LabelName(2), "c");
  EXPECT_EQ(d.LabelName(3), "d");
  EXPECT_EQ(d.LabelName(4), "e");
  EXPECT_EQ(d.LabelName(5), "f");
  EXPECT_EQ(d.first_child(0), 1);
  EXPECT_EQ(d.next_sibling(1), 4);
  EXPECT_EQ(d.first_child(1), 2);
  EXPECT_EQ(d.next_sibling(2), 3);
  EXPECT_EQ(d.next_sibling(3), kNullNode);
  EXPECT_EQ(d.parent(5), 4);
  EXPECT_EQ(d.parent(0), kNullNode);
}

TEST(TreeBuilderTest, SubtreeSizes) {
  Document d = TreeOf("a(b(c,d),e(f))");
  EXPECT_EQ(d.subtree_size(0), 6);
  EXPECT_EQ(d.subtree_size(1), 3);
  EXPECT_EQ(d.subtree_size(2), 1);
  EXPECT_EQ(d.subtree_size(4), 2);
  EXPECT_EQ(d.XmlEnd(1), 4);
  EXPECT_EQ(d.XmlEnd(0), 6);
}

TEST(TreeBuilderTest, BinaryViewMatchesFcns) {
  Document d = TreeOf("a(b(c,d),e(f))");
  EXPECT_EQ(d.BinaryLeft(0), 1);   // first child
  EXPECT_EQ(d.BinaryRight(1), 4);  // next sibling
  EXPECT_EQ(d.BinaryLeft(2), kNullNode);
  EXPECT_EQ(d.BinaryRight(2), 3);
}

TEST(TreeBuilderTest, BinaryEndSpansSiblings) {
  Document d = TreeOf("a(b(c,d),e(f))");
  // Binary subtree of b (=1): its own subtree {1,2,3} plus sibling e's {4,5}.
  EXPECT_EQ(d.BinaryEnd(1), 6);
  // Binary subtree of c (=2): itself plus sibling d. Range [2,4).
  EXPECT_EQ(d.BinaryEnd(2), 4);
  // Root: only its own subtree.
  EXPECT_EQ(d.BinaryEnd(0), 6);
}

TEST(TreeBuilderTest, Depth) {
  Document d = TreeOf("a(b(c),d)");
  EXPECT_EQ(d.Depth(0), 0);
  EXPECT_EQ(d.Depth(1), 1);
  EXPECT_EQ(d.Depth(2), 2);
  EXPECT_EQ(d.Depth(3), 1);
}

TEST(TreeBuilderTest, AttributesAndText) {
  TreeBuilder b;
  b.BeginElement("item");
  b.AddAttribute("id", "item7");
  b.AddText("hello");
  b.EndElement();
  Document d = std::move(b.Finish()).value();
  ASSERT_EQ(d.num_nodes(), 3);
  EXPECT_EQ(d.kind(1), NodeKind::kAttribute);
  EXPECT_EQ(d.LabelName(1), "@id");
  EXPECT_EQ(d.text(1), "item7");
  EXPECT_EQ(d.kind(2), NodeKind::kText);
  EXPECT_EQ(d.LabelName(2), "#text");
  EXPECT_EQ(d.text(2), "hello");
  EXPECT_EQ(d.text(0), "");
}

TEST(TreeBuilderTest, FinishFailsOnOpenElements) {
  TreeBuilder b;
  b.BeginElement("a");
  EXPECT_FALSE(b.Finish().ok());
}

TEST(TreeBuilderTest, FinishFailsOnEmpty) {
  TreeBuilder b;
  EXPECT_FALSE(b.Finish().ok());
}

TEST(TreeBuilderTest, FinishFailsOnTwoRoots) {
  TreeBuilder b;
  b.BeginElement("a");
  b.EndElement();
  b.BeginElement("b");
  b.EndElement();
  EXPECT_FALSE(b.Finish().ok());
}

TEST(DocumentPropertyTest, InvariantsOnRandomTrees) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Document d = RandomTree(seed, {.num_nodes = 200, .num_labels = 4});
    ASSERT_EQ(d.root(), 0);
    for (NodeId n = 0; n < d.num_nodes(); ++n) {
      // Children lie inside the parent's preorder range.
      for (NodeId c = d.first_child(n); c != kNullNode;
           c = d.next_sibling(c)) {
        EXPECT_EQ(d.parent(c), n);
        EXPECT_GT(c, n);
        EXPECT_LT(c, d.XmlEnd(n));
      }
      // Subtree size equals 1 + sum of child subtree sizes.
      int32_t sum = 1;
      for (NodeId c = d.first_child(n); c != kNullNode;
           c = d.next_sibling(c)) {
        sum += d.subtree_size(c);
      }
      EXPECT_EQ(d.subtree_size(n), sum);
      // Next sibling begins exactly at XmlEnd.
      NodeId s = d.next_sibling(n);
      if (s != kNullNode) {
        EXPECT_EQ(s, d.XmlEnd(n));
      }
      // BinaryEnd covers all binary descendants.
      NodeId p = d.parent(n);
      EXPECT_EQ(d.BinaryEnd(n), p == kNullNode ? d.XmlEnd(n) : d.XmlEnd(p));
    }
  }
}

}  // namespace
}  // namespace xpwqo
