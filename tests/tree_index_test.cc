#include "index/tree_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/random.h"

namespace xpwqo {
namespace {

using testing_util::RandomTree;
using testing_util::TreeOf;

/// Brute-force d_t: scan the binary subtree range.
NodeId BruteFirstBinaryDescendant(const Document& d, NodeId n,
                                  const LabelSet& set) {
  for (NodeId m = n + 1; m < d.BinaryEnd(n); ++m) {
    if (set.Contains(d.label(m))) return m;
  }
  return kNullNode;
}

/// Brute-force topmost L-labeled strict binary descendants of n, via the
/// recursive definition (stop descending at a match).
void BruteTopmostRec(const Document& d, NodeId x, const LabelSet& set,
                     std::vector<NodeId>* out) {
  if (x == kNullNode) return;
  if (set.Contains(d.label(x))) {
    out->push_back(x);
    return;
  }
  BruteTopmostRec(d, d.BinaryLeft(x), set, out);
  BruteTopmostRec(d, d.BinaryRight(x), set, out);
}

std::vector<NodeId> BruteTopmost(const Document& d, NodeId n,
                                 const LabelSet& set) {
  std::vector<NodeId> out;
  BruteTopmostRec(d, d.BinaryLeft(n), set, &out);
  BruteTopmostRec(d, d.BinaryRight(n), set, &out);
  return out;
}

/// Topmost enumeration through the index primitives (d_t then f_t chain).
std::vector<NodeId> IndexTopmost(const TreeIndex& idx, NodeId n,
                                 const LabelSet& set) {
  std::vector<NodeId> out;
  for (NodeId m = idx.FirstBinaryDescendant(n, set); m != kNullNode;
       m = idx.NextTopmost(m, set, n)) {
    out.push_back(m);
  }
  return out;
}

NodeId BruteLeftPathFirst(const Document& d, NodeId n, const LabelSet& set) {
  for (NodeId c = d.first_child(n); c != kNullNode; c = d.first_child(c)) {
    if (set.Contains(d.label(c))) return c;
  }
  return kNullNode;
}

NodeId BruteRightPathFirst(const Document& d, NodeId n, const LabelSet& set) {
  for (NodeId c = d.next_sibling(n); c != kNullNode; c = d.next_sibling(c)) {
    if (set.Contains(d.label(c))) return c;
  }
  return kNullNode;
}

TEST(TreeIndexTest, FirstBinaryDescendantSmall) {
  //      a0
  //  b1      c4
  // b2 c3   b5
  Document d = TreeOf("a(b(b,c),c(b))");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  LabelId b = d.alphabet().Find("b");
  LabelId c = d.alphabet().Find("c");
  EXPECT_EQ(idx.FirstBinaryDescendant(0, LabelSet::Of({b})), 1);
  EXPECT_EQ(idx.FirstBinaryDescendant(0, LabelSet::Of({c})), 3);
  // Binary subtree of b1 includes its sibling c4 and c4's subtree.
  EXPECT_EQ(idx.FirstBinaryDescendant(1, LabelSet::Of({c})), 3);
  // c3 has no children and no following sibling: its binary subtree is {c3}.
  EXPECT_EQ(idx.FirstBinaryDescendant(3, LabelSet::Of({b})), kNullNode);
  // c4's binary subtree contains its child b5.
  EXPECT_EQ(idx.FirstBinaryDescendant(4, LabelSet::Of({b})), 5);
  EXPECT_EQ(idx.FirstBinaryDescendant(5, LabelSet::Of({b})), kNullNode);
}

TEST(TreeIndexTest, TopmostEnumerationSmall) {
  // Binary-topmost b's below the root: only b1 — b2, c3, c4 and b5 are all
  // binary descendants of b1 (c4 is b1's following sibling).
  Document d = TreeOf("a(b(b,c),c(b))");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  LabelSet b = LabelSet::Of({d.alphabet().Find("b")});
  EXPECT_EQ(IndexTopmost(idx, 0, b), (std::vector<NodeId>{1}));
  EXPECT_EQ(BruteTopmost(d, 0, b), (std::vector<NodeId>{1}));
  // Below c4 the only topmost b is b5; below b1 the first is b2.
  EXPECT_EQ(IndexTopmost(idx, 4, b), (std::vector<NodeId>{5}));
  EXPECT_EQ(IndexTopmost(idx, 1, b), BruteTopmost(d, 1, b));
}

TEST(TreeIndexTest, LeftAndRightPathSmall) {
  Document d = TreeOf("a(b(c(x),d),e)");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  auto L = [&](const char* n) {
    return LabelSet::Of({d.alphabet().Find(n)});
  };
  // Left path below a0: b1 -> c2 -> x3.
  EXPECT_EQ(idx.LeftPathFirst(0, L("c")), 2);
  EXPECT_EQ(idx.LeftPathFirst(0, L("x")), 3);
  EXPECT_EQ(idx.LeftPathFirst(0, L("d")), kNullNode);  // d not on left path
  // Right path of b1: sibling e5.
  EXPECT_EQ(idx.RightPathFirst(1, L("e")), 5);
  EXPECT_EQ(idx.RightPathFirst(1, L("x")), kNullNode);
  // Right path of c2: sibling d4.
  EXPECT_EQ(idx.RightPathFirst(2, L("d")), 4);
}

TEST(TreeIndexTest, RightPathSkipsNestedMatches) {
  // The first 'k' in document order after b1 is nested inside sibling c(k);
  // the spine match is the later k sibling.
  Document d = TreeOf("a(b,c(k),k)");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  LabelSet k = LabelSet::Of({d.alphabet().Find("k")});
  EXPECT_EQ(idx.RightPathFirst(1, k), 4);
}

TEST(TreeIndexTest, CountDelegatesToLabelIndex) {
  Document d = TreeOf("a(b,b,c)");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  EXPECT_EQ(idx.Count(d.alphabet().Find("b")), 2);
  EXPECT_EQ(idx.Count(999), 0);
}

TEST(TreeIndexTest, SuccinctBackendSmall) {
  Document d = TreeOf("a(b(b,c),c(b))");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  EXPECT_EQ(&idx.tree(), &tree);
  LabelId b = d.alphabet().Find("b");
  LabelId c = d.alphabet().Find("c");
  EXPECT_EQ(idx.Count(b), 3);
  EXPECT_EQ(idx.FirstBinaryDescendant(0, LabelSet::Of({b})), 1);
  EXPECT_EQ(idx.FirstBinaryDescendant(0, LabelSet::Of({c})), 3);
  EXPECT_EQ(idx.FirstBinaryDescendant(3, LabelSet::Of({b})), kNullNode);
  EXPECT_EQ(idx.FirstBinaryDescendant(4, LabelSet::Of({b})), 5);
  EXPECT_EQ(idx.RightPathFirst(1, LabelSet::Of({c})), 4);
}

TEST(TreeIndexTest, SuccinctBackendLabelsInternedLaterCountZero) {
  // The succinct LabelIndex is sized by the largest label present; labels
  // interned after construction must count 0, not crash.
  Document d = TreeOf("a(b)");
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  LabelId later = d.alphabet_ptr()->Intern("zzz");
  EXPECT_EQ(idx.Count(later), 0);
  EXPECT_EQ(idx.FirstBinaryDescendant(0, LabelSet::Of({later})), kNullNode);
}

class TreeIndexRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeIndexRandomTest, JumpFunctionsMatchBruteForce) {
  Document d = RandomTree(GetParam(), {.num_nodes = 250, .num_labels = 3});
  // Every primitive, navigating through the BP kernels, against brute force
  // over the pointer Document (same preorder ids).
  SuccinctTree tree(d);
  TreeIndex idx(tree);
  Random rng(GetParam() ^ 0xabcdef);
  std::vector<LabelSet> sets;
  for (LabelId l = 0; l < d.alphabet().size(); ++l) {
    sets.push_back(LabelSet::Of({l}));
  }
  sets.push_back(LabelSet::Of({1, 2}));
  sets.push_back(LabelSet::None());
  for (const LabelSet& set : sets) {
    for (int trial = 0; trial < 40; ++trial) {
      NodeId n = static_cast<NodeId>(rng.Uniform(d.num_nodes()));
      ASSERT_EQ(idx.FirstBinaryDescendant(n, set),
                BruteFirstBinaryDescendant(d, n, set));
      ASSERT_EQ(IndexTopmost(idx, n, set), BruteTopmost(d, n, set));
      ASSERT_EQ(idx.LeftPathFirst(n, set), BruteLeftPathFirst(d, n, set));
      ASSERT_EQ(idx.RightPathFirst(n, set), BruteRightPathFirst(d, n, set));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeIndexRandomTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace xpwqo
