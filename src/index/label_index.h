// LabelIndex: per-label sorted preorder occurrence lists. This is the
// structure behind the paper's jumping primitives: finding the first node
// with a label in L inside a preorder range costs O(|L| log n), and global
// label counts (used by the hybrid strategy to pick a starting label) are
// O(1).
//
// Posting lists are stored compressed (see index/postings.h): sparse labels
// as 32-entry delta blocks behind a skip table, dense labels as
// rank-indexed bitmaps — chosen per label when the index freezes. The lists
// can be built from a Document or a SuccinctTree's label array (node ids are
// preorder ranks in both) or grown compressed in-pass during streaming
// ingestion.
#ifndef XPWQO_INDEX_LABEL_INDEX_H_
#define XPWQO_INDEX_LABEL_INDEX_H_

#include <string_view>
#include <vector>

#include "index/postings.h"
#include "tree/document.h"
#include "tree/event_sink.h"
#include "tree/label_set.h"

namespace xpwqo {

class SuccinctTree;
class LabelPostingsBuilder;

/// Immutable posting lists of node ids (== preorder ranks) per label.
class LabelIndex {
 public:
  explicit LabelIndex(const Document& doc);
  /// Builds the postings straight from the tree's label array.
  explicit LabelIndex(const SuccinctTree& tree);
  /// Adopts posting lists grown incrementally during streaming ingestion.
  explicit LabelIndex(LabelPostingsBuilder&& builder);

  /// Appends the index's persistent-image payload to `out`: {u32 list
  /// count, u32 zero}, an offset directory of list-count + 1 u64 byte
  /// offsets (relative to the payload start; entry i+1 doubles as entry
  /// i's end, the final entry is the payload size), then each list's
  /// PostingList::SerializeTo bytes, every one 8-byte aligned.
  /// Deterministic: an index loaded via FromImage re-serializes
  /// byte-identically.
  void SerializeTo(std::string* out) const;

  /// Wraps an image payload written by SerializeTo; the posting lists read
  /// straight from the mapped bytes, which must outlive the index. `data`
  /// must be 8-byte aligned and `num_nodes` the owning document's node
  /// count. Validates the directory (alignment, monotone offsets inside
  /// the payload) and every list's shape; violations return kCorruption.
  static StatusOr<LabelIndex> FromImage(const uint8_t* data, size_t size,
                                        NodeId num_nodes);

  /// Number of occurrences of `label` (0 for labels interned after the
  /// document was built).
  int32_t Count(LabelId label) const;

  /// Number of stored posting lists (labels at or past this have zero
  /// occurrences; the persist loader cross-checks totals through it).
  size_t NumLists() const { return postings_.size(); }

  /// The compressed posting list of `label` (empty list for unknown ids).
  const PostingList& Postings(LabelId label) const;

  /// All occurrences of `label` in document order, decompressed. One-shot
  /// consumers and tests; hot paths read through Postings()/SetCursor.
  std::vector<NodeId> Occurrences(LabelId label) const;

  /// Smallest node id in [lo, hi) with the given label, or kNullNode.
  NodeId FirstInRange(LabelId label, NodeId lo, NodeId hi) const;

  /// Smallest node id in [lo, hi) whose label is in `set`, or kNullNode.
  /// Requires set.IsFinite(); co-finite sets cannot be jumped to (callers
  /// fall back to stepping, as the paper's engine does). Each label probe
  /// seeks its posting head at or after lo; the heads merge through a
  /// branchless unsigned min (kNullNode = -1 ranks above every real id).
  NodeId FirstInRange(const LabelSet& set, NodeId lo, NodeId hi) const;

  /// Number of occurrences of `label` within [lo, hi).
  int32_t CountInRange(LabelId label, NodeId lo, NodeId hi) const;

  /// True if any label of the finite `set` occurs within [lo, hi). Shares
  /// the seek with FirstInRange but stops at the first hit.
  bool RangeContainsAny(const LabelSet& set, NodeId lo, NodeId hi) const;

  /// Stateful merged probe over one finite LabelSet's posting lists, for
  /// enumeration loops whose lower bound only moves forward (topmost-node
  /// chains: each jump starts at the previous subtree's BinaryEnd). Each
  /// per-label cursor advances monotonically — galloping over skip entries
  /// past whole compressed blocks, decoding only the block it lands in — so
  /// a whole enumeration pays O(matches visited) amortized movement instead
  /// of |L| fresh front-seeks per jump.
  class SetCursor {
   public:
    SetCursor() = default;
    SetCursor(const LabelIndex& index, const LabelSet& set);

    /// Smallest node id >= lo across the set's lists that is < hi, or
    /// kNullNode. `lo` must be non-decreasing across calls.
    NodeId First(NodeId lo, NodeId hi);

   private:
    /// Essential-label sets are almost always tiny; an inline buffer keeps
    /// cursor construction allocation-free for them (one SetCursor is
    /// built per jump region, including regions that prove empty).
    static constexpr size_t kInlineCursors = 4;
    PostingList::Cursor* data() {
      return spill_.empty() ? inline_cursors_ : spill_.data();
    }

    PostingList::Cursor inline_cursors_[kInlineCursors];
    size_t count_ = 0;
    // holds ALL cursors when count_ > inline
    std::vector<PostingList::Cursor> spill_;
  };

  /// Memory accounting for the index-memory report threaded through Engine
  /// and the benches.
  struct MemoryStats {
    size_t bytes = 0;         // compressed postings + per-label table
    size_t vector_bytes = 0;  // the same lists as plain vector<NodeId>
    size_t dense_labels = 0;  // labels stored as rank-indexed bitmaps
    size_t sparse_labels = 0;  // labels stored as delta blocks
  };
  MemoryStats Memory() const;
  size_t MemoryUsage() const { return Memory().bytes; }

 private:
  LabelIndex() = default;  // FromImage populates the lists itself

  void Build(const LabelId* labels, int32_t num_nodes, size_t num_labels);

  std::vector<PostingList> postings_;
  static const PostingList kEmptyList;
};

/// Grows per-label compressed posting lists incrementally from
/// TreeEventSink events: every node event appends the next preorder id to
/// its label's list, so the lists are sorted by construction and compress
/// in-pass (delta blocks grow as the events arrive; no uncompressed list
/// ever exists). The finished index is identical to LabelIndex(Document) /
/// LabelIndex(SuccinctTree) — with no tree of either kind materialized.
/// Move into LabelIndex to finish (that is when the per-label dense/sparse
/// representation is chosen, since it needs the final node count).
class LabelPostingsBuilder final : public TreeEventSink {
 public:
  LabelPostingsBuilder() = default;

  void BeginElement(LabelId label) override { Add(label); }
  void Attribute(LabelId label, std::string_view /*value*/) override {
    Add(label);
  }
  void Text(LabelId label, std::string_view /*content*/) override {
    Add(label);
  }
  void EndElement() override {}

  /// Nodes recorded so far (== the next preorder id).
  int32_t num_nodes() const { return next_id_; }

 private:
  friend class LabelIndex;

  void Add(LabelId label) {
    if (label >= static_cast<LabelId>(postings_.size())) {
      postings_.resize(static_cast<size_t>(label) + 1);
    }
    postings_[label].Append(next_id_++);
  }

  std::vector<PostingList> postings_;
  NodeId next_id_ = 0;
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_LABEL_INDEX_H_
