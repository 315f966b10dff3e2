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

namespace xpwqo {

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

  /// Bytes used by parentheses + directory + label array.
  size_t MemoryUsage() const;

 private:
  /// Shared adoption tail of every constructor: move the bits in, freeze
  /// (a no-op for already-frozen external bits), build the BP directory.
  /// The caller has set labels_v_/num_nodes_ first.
  void Adopt(BitVector bits);

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
