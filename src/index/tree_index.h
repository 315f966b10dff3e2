// TreeIndex: the jumping primitives of Definition 3.2 over the succinct
// tree and its LabelIndex, plus the "topmost labeled nodes" enumeration
// derived from them (d_t to find the first, f_t to step over binary
// subtrees). Navigation resolves through the balanced-parentheses kernels
// (FindClose / excess search / Enclose). All node identifiers are preorder
// ranks, and the *binary* tree of the paper is the first-child/next-sibling
// view: the binary subtree of n spans the preorder range [n, BinaryEnd(n)).
#ifndef XPWQO_INDEX_TREE_INDEX_H_
#define XPWQO_INDEX_TREE_INDEX_H_

#include <utility>

#include "index/label_index.h"
#include "index/succinct_tree.h"
#include "tree/label_set.h"

namespace xpwqo {

/// Jump functions over one document. Holds a reference to the tree, which
/// must outlive the index.
class TreeIndex {
 public:
  explicit TreeIndex(const SuccinctTree& tree)
      : tree_(&tree), labels_(tree) {}
  /// From-builder: adopts a LabelIndex grown during streaming ingestion
  /// (LabelPostingsBuilder) instead of re-scanning the label array.
  TreeIndex(const SuccinctTree& tree, LabelIndex labels)
      : tree_(&tree), labels_(std::move(labels)) {}

  const SuccinctTree& tree() const { return *tree_; }
  const LabelIndex& labels() const { return labels_; }

  /// d_t(n, L): first *binary-tree* descendant of n (strictly below, in
  /// document order) whose label is in L, or kNullNode.
  NodeId FirstBinaryDescendant(NodeId n, const LabelSet& set) const;

  /// First node of [n, BinaryEnd(n)) — n included — with label in L.
  NodeId FirstInBinarySubtree(NodeId n, const LabelSet& set) const;

  /// f_t(m, L, scope): first *binary* following node of m (document order,
  /// not a binary descendant of m) that is a binary descendant of `scope`
  /// and has a label in L. With d_t this enumerates the topmost L-labeled
  /// nodes of scope's binary subtree:
  ///   first = FirstBinaryDescendant(scope, L)
  ///   next  = NextTopmost(prev, L, scope)
  NodeId NextTopmost(NodeId m, const LabelSet& set, NodeId scope) const;

  /// NextTopmost with the scope's binary end precomputed. Enumeration loops
  /// should hoist BinaryEnd(scope) once and call this variant, so the scope
  /// boundary is not re-derived on every jump. (Hot loops that enumerate a
  /// whole chain should additionally hoist a LabelIndex::SetCursor and probe
  /// it with BinaryEnd(m) directly — see eval.cc / topdown_jump.cc.)
  NodeId NextTopmostBefore(NodeId m, const LabelSet& set,
                           NodeId scope_end) const;

  /// l_t(n, L): first node on the left-most binary path below n (the
  /// first-child chain) with label in L, or kNullNode. O(chain length).
  NodeId LeftPathFirst(NodeId n, const LabelSet& set) const;

  /// r_t(n, L): first node on the right-most binary path below n (the
  /// next-sibling chain) with label in L, or kNullNode. Uses the label
  /// index to skip over sibling subtrees.
  NodeId RightPathFirst(NodeId n, const LabelSet& set) const;

  NodeId BinaryEnd(NodeId n) const { return tree_->BinaryEnd(n); }
  NodeId XmlEnd(NodeId n) const { return tree_->XmlEnd(n); }
  NodeId Parent(NodeId n) const { return tree_->parent(n); }
  NodeId FirstChild(NodeId n) const { return tree_->first_child(n); }
  NodeId NextSibling(NodeId n) const { return tree_->next_sibling(n); }
  LabelId Label(NodeId n) const { return tree_->label(n); }

  /// Global count of a label (O(1), used by the hybrid strategy).
  int32_t Count(LabelId label) const { return labels_.Count(label); }

 private:
  const SuccinctTree* tree_;
  LabelIndex labels_;
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_TREE_INDEX_H_
