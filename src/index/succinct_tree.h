// SuccinctTree: the document topology in 2 bits per node (+ directory), per
// the paper's use of fully-functional succinct trees [18] to avoid the 5-10x
// memory blow-up of pointer structures (§1). Every evaluator but the
// node-set baseline runs on it. Node identifiers are preorder ranks and
// therefore interchangeable with Document NodeIds, so the baseline's answers
// over a Document compare directly with the evaluators' over its tree.
#ifndef XPWQO_INDEX_SUCCINCT_TREE_H_
#define XPWQO_INDEX_SUCCINCT_TREE_H_

#include <span>
#include <vector>

#include "index/balanced_parens.h"
#include "tree/document.h"
#include "util/check.h"

namespace xpwqo {

/// A node together with the BP position of its open paren, as carried by
/// position-aware navigation. node == kNullNode means "no such node".
struct NodePos {
  NodeId node = kNullNode;
  int64_t pos = -1;
};

/// Balanced-parentheses encoding of a document tree with the navigation
/// operations the evaluators need.
class SuccinctTree {
 public:
  /// Encodes the topology (and copies the label array) of `doc`. This is a
  /// convenience wrapper over SuccinctBuilder — the streaming ingestion
  /// pipeline builds the same representation directly from parser events
  /// without materializing a Document first.
  explicit SuccinctTree(const Document& doc);

  /// Adopts streamed construction output: the appended (unfrozen)
  /// parenthesis bits and the preorder label array, as produced by
  /// SuccinctBuilder. Freezes the bits and builds the rank/rmM directories.
  SuccinctTree(BitVector bits, std::vector<LabelId> labels);

  /// Wraps image-backed parts without copying: `external_bits` is a frozen
  /// BitVector over mapped BP words (BitVector::FromExternal) and `labels`
  /// the preorder label array inside the same mapped image, which must
  /// outlive the tree. The persist reader has already checksummed the bytes
  /// and validated the shape (bits.size() == 2 * num_nodes,
  /// bits.CountOnes() == num_nodes); only the in-memory rank/rmM
  /// directories are built here.
  SuccinctTree(BitVector external_bits, const LabelId* labels,
               size_t num_nodes);

  SuccinctTree(const SuccinctTree&) = delete;
  SuccinctTree& operator=(const SuccinctTree&) = delete;
  SuccinctTree(SuccinctTree&&) = delete;

  int32_t num_nodes() const { return num_nodes_; }
  NodeId root() const { return num_nodes() == 0 ? kNullNode : 0; }

  LabelId label(NodeId n) const { return labels_v_[n]; }
  /// The raw preorder label array (LabelIndex builds its posting lists
  /// straight from this, no pointer tree needed; the persist writer
  /// serializes it verbatim). May view mapped image memory.
  std::span<const LabelId> label_array() const {
    return {labels_v_, static_cast<size_t>(num_nodes_)};
  }
  /// The frozen BP bit sequence (the persist writer serializes its words).
  const BitVector& bp_bits() const { return bp_; }
  NodeId parent(NodeId n) const;
  NodeId first_child(NodeId n) const;
  NodeId next_sibling(NodeId n) const;
  int32_t subtree_size(NodeId n) const;
  int Depth(NodeId n) const;

  /// One past the last preorder id in n's XML subtree: one FindClose plus
  /// one Rank1 (opens before n's close paren = n + subtree size).
  NodeId XmlEnd(NodeId n) const;

  /// One past the last preorder id in n's *binary* (fcns) subtree. A single
  /// forward excess search locates the parent's close paren directly, so
  /// this costs one search + one Rank1 instead of Enclose + FindClose.
  NodeId BinaryEnd(NodeId n) const;

  NodeId BinaryLeft(NodeId n) const { return first_child(n); }
  NodeId BinaryRight(NodeId n) const { return next_sibling(n); }

  // Position-carrying navigation. The calls above turn a preorder id into
  // its BP position with one Select1 each. A traversal that already holds
  // a node's position `pos` (from OpenPos, or from an earlier *At call)
  // needs neither select nor rank: the excess at n's open paren is
  // 2(n+1) - (pos+1) (OpenExcess), and the number of opens up to a
  // position c is (Excess(c) + c + 1)/2 (OpensThrough).

  /// BP position of n's open paren (one Select1).
  int64_t OpenPos(NodeId n) const { return Pos(n); }

  /// first_child(n) with its position, given pos == OpenPos(n).
  NodePos FirstChildAt(NodeId n, int64_t pos) const {
    XPWQO_DCHECK(pos == Pos(n));
    if (!ops_.IsOpen(pos + 1)) return {};
    return {n + 1, pos + 1};
  }

  /// next_sibling(n) with its position, given pos == OpenPos(n): one
  /// FindClose.
  NodePos NextSiblingAt(NodeId n, int64_t pos) const {
    XPWQO_DCHECK(pos == Pos(n));
    const int64_t close = ops_.FindClose(pos);
    if (close + 1 >= ops_.size() || !ops_.IsOpen(close + 1)) return {};
    return {OpensThrough(close, OpenExcess(n, pos) - 1), close + 1};
  }

  /// Depth(n) given pos == OpenPos(n), with no rank.
  int DepthAt(NodeId n, int64_t pos) const {
    XPWQO_DCHECK(pos == Pos(n));
    return static_cast<int>(OpenExcess(n, pos) - 1);
  }

  /// XmlEnd(n) given pos == OpenPos(n): one FindClose.
  NodeId XmlEndAt(NodeId n, int64_t pos) const {
    XPWQO_DCHECK(pos == Pos(n));
    return OpensThrough(ops_.FindClose(pos), OpenExcess(n, pos) - 1);
  }

  /// The ancestor of n at depth `depth` (n itself when Depth(n) == depth),
  /// given pos == OpenPos(n) and depth <= Depth(n): one backward excess
  /// search, for the last earlier position whose excess is `depth`; the
  /// ancestor's open paren follows it.
  NodePos AncestorAt(NodeId n, int64_t pos, int depth) const {
    XPWQO_DCHECK(pos == Pos(n));
    XPWQO_DCHECK(depth >= 0 && depth <= DepthAt(n, pos));
    const int64_t e = OpenExcess(n, pos);
    if (e == depth + 1) return {n, pos};
    const int64_t q = ops_.BwdSearchExcessFrom(pos - 1, depth, e - 1) + 1;
    return {OpensThrough(q, depth + 1) - 1, q};
  }

  /// BinaryEnd(n) given pos == OpenPos(n): one excess search, for the
  /// close paren of n's parent (of n itself for the root).
  NodeId BinaryEndAt(NodeId n, int64_t pos) const {
    XPWQO_DCHECK(pos == Pos(n));
    const int64_t e = OpenExcess(n, pos);
    if (e == 1) return OpensThrough(ops_.FindClose(pos), 0);
    const int64_t close = ops_.FwdSearchExcessFrom(pos + 1, e - 2, e);
    XPWQO_DCHECK(close != BalancedParens::kNotFound);
    return OpensThrough(close, e - 2);
  }

  /// Bytes used by parentheses + directory + label array.
  size_t MemoryUsage() const;

 private:
  /// Shared adoption tail of every constructor: move the bits in, freeze
  /// (a no-op for already-frozen external bits), build the BP directory.
  /// The caller has set labels_v_/num_nodes_ first.
  void Adopt(BitVector bits);

  /// Excess at the open paren of node n, given pos == OpenPos(n).
  static int64_t OpenExcess(NodeId n, int64_t pos) {
    return 2 * (static_cast<int64_t>(n) + 1) - (pos + 1);
  }
  /// Number of open parens in [0, c], given e == Excess(c): the preorder id
  /// of the node whose open paren comes next.
  static NodeId OpensThrough(int64_t c, int64_t e) {
    return static_cast<NodeId>((e + c + 1) / 2);
  }

  /// BP position of the open paren of preorder node n.
  int64_t Pos(NodeId n) const {
    return static_cast<int64_t>(bp_.Select1(static_cast<size_t>(n) + 1));
  }
  /// Preorder node of the open paren at BP position p.
  NodeId NodeAt(int64_t p) const {
    return static_cast<NodeId>(bp_.Rank1(static_cast<size_t>(p) + 1)) - 1;
  }

  BitVector bp_;
  BalancedParens ops_;
  std::vector<LabelId> labels_;  // owned-mode storage; empty when mapped
  // Label reads go through the view: labels_.data() in owned mode, a
  // pointer into the mapped image in external mode.
  const LabelId* labels_v_ = nullptr;
  int32_t num_nodes_ = 0;
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_SUCCINCT_TREE_H_
