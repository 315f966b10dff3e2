#include "index/succinct_tree.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "xmark/generator.h"

namespace xpwqo {
namespace {

using testing_util::RandomTree;
using testing_util::TreeOf;

void ExpectAgreesWithDocument(const Document& d) {
  SuccinctTree t(d);
  ASSERT_EQ(t.num_nodes(), d.num_nodes());
  ASSERT_EQ(t.root(), d.root());
  for (NodeId n = 0; n < d.num_nodes(); ++n) {
    ASSERT_EQ(t.label(n), d.label(n)) << n;
    ASSERT_EQ(t.parent(n), d.parent(n)) << n;
    ASSERT_EQ(t.first_child(n), d.first_child(n)) << n;
    ASSERT_EQ(t.next_sibling(n), d.next_sibling(n)) << n;
    ASSERT_EQ(t.subtree_size(n), d.subtree_size(n)) << n;
    ASSERT_EQ(t.XmlEnd(n), d.XmlEnd(n)) << n;
    ASSERT_EQ(t.BinaryEnd(n), d.BinaryEnd(n)) << n;
    ASSERT_EQ(t.Depth(n), d.Depth(n)) << n;
  }
}

// The position-carrying calls (FirstChildAt, NextSiblingAt, BinaryEndAt,
// XmlEndAt, DepthAt, AncestorAt) against the select/rank-based ones, on
// every node: the root, leaves and last siblings (whose *At calls return
// "no node") included.
void ExpectPositionNavigationAgrees(const SuccinctTree& t) {
  int leaves = 0;
  int last_siblings = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    const int64_t pos = t.OpenPos(n);
    const NodePos child = t.FirstChildAt(n, pos);
    ASSERT_EQ(child.node, t.first_child(n)) << n;
    if (child.node == kNullNode) {
      ++leaves;
    } else {
      ASSERT_EQ(child.pos, t.OpenPos(child.node)) << n;
    }
    const NodePos sibling = t.NextSiblingAt(n, pos);
    ASSERT_EQ(sibling.node, t.next_sibling(n)) << n;
    if (sibling.node == kNullNode) {
      ++last_siblings;
    } else {
      ASSERT_EQ(sibling.pos, t.OpenPos(sibling.node)) << n;
    }
    ASSERT_EQ(t.BinaryEndAt(n, pos), t.BinaryEnd(n)) << n;
    ASSERT_EQ(t.XmlEndAt(n, pos), t.XmlEnd(n)) << n;
    const int depth = t.DepthAt(n, pos);
    ASSERT_EQ(depth, t.Depth(n)) << n;
    // Every ancestor, found from n's own position.
    NodeId a = n;
    for (int d = depth; d >= 0; --d, a = t.parent(a)) {
      const NodePos up = t.AncestorAt(n, pos, d);
      ASSERT_EQ(up.node, a) << n << " at depth " << d;
      ASSERT_EQ(up.pos, t.OpenPos(a)) << n << " at depth " << d;
    }
    ASSERT_EQ(a, kNullNode) << n;
  }
  EXPECT_GT(leaves, 0);
  EXPECT_GT(last_siblings, 1);  // the root plus at least one real sibling
}

TEST(SuccinctTreeTest, SingleNode) { ExpectAgreesWithDocument(TreeOf("a")); }

TEST(SuccinctTreeTest, SmallTree) {
  ExpectAgreesWithDocument(TreeOf("a(b(c,d),e(f))"));
}

TEST(SuccinctTreeTest, DeepChain) {
  std::string spec = "a";
  for (int i = 0; i < 100; ++i) spec = "a(" + spec + ")";
  ExpectAgreesWithDocument(TreeOf(spec));
}

TEST(SuccinctTreeTest, WideFanout) {
  std::string spec = "r(x";
  for (int i = 0; i < 300; ++i) spec += ",x";
  spec += ")";
  ExpectAgreesWithDocument(TreeOf(spec));
}

class SuccinctTreeRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SuccinctTreeRandomTest, AgreesWithPointerTree) {
  // Sizes chosen to cross the 512-bit block boundary of the BP directory.
  ExpectAgreesWithDocument(RandomTree(
      GetParam(),
      {.num_nodes = 700, .num_labels = 4, .descend_prob = 0.45}));
}

TEST_P(SuccinctTreeRandomTest, PositionNavigationAgrees) {
  SuccinctTree t(RandomTree(
      GetParam(),
      {.num_nodes = 700, .num_labels = 4, .descend_prob = 0.45}));
  ExpectPositionNavigationAgrees(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccinctTreeRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SuccinctTreeTest, AgreesOnXMarkDocument) {
  XMarkOptions opt;
  opt.scale = 0.002;
  ExpectAgreesWithDocument(GenerateXMark(opt));
}

TEST(SuccinctTreeTest, PositionNavigationAgreesOnXMarkDocument) {
  XMarkOptions opt;
  opt.scale = 0.01;
  SuccinctTree t(GenerateXMark(opt));
  ExpectPositionNavigationAgrees(t);
}

TEST(SuccinctTreeTest, UsesFarLessTopologyMemoryThanPointers) {
  Document d = RandomTree(1, {.num_nodes = 20000, .num_labels = 4});
  SuccinctTree t(d);
  // The paper's motivation (§1): pointer structures blow memory up 5-10x.
  // Topology here is ~2.1 bits/node vs 4 x 4-byte pointers; the label array
  // (4 bytes/node) dominates SuccinctTree's footprint.
  const size_t pointer_bytes = static_cast<size_t>(d.num_nodes()) *
                               (sizeof(LabelId) + 4 * sizeof(NodeId));
  EXPECT_LT(t.MemoryUsage(), pointer_bytes / 3);
}

}  // namespace
}  // namespace xpwqo
