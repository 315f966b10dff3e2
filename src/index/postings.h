// PostingList: one label's sorted occurrence list in compressed form, the
// storage behind LabelIndex's jumping primitives (FirstInRange /
// CountInRange / SetCursor). Plain vector<NodeId> postings were the largest
// non-label structure of the index — 4 bytes per occurrence regardless of
// gap size — which undercut the paper's space argument once the tree itself
// fit in ~2 bits/node.
//
// Two representations, chosen per label when the list is frozen:
//
//   sparse  32-entry delta blocks. A skip table stores each block's first
//           id and the byte offset of its delta stream, so a seek gallops
//           over skip entries (no decoding) and decodes at most one block.
//           In-block gaps are LEB128 varints — rare labels on a large
//           document have multi-thousand gaps that still fit 2-3 bytes.
//           The block size trades skip-table overhead (8 bytes per block =
//           2 bits/entry at 32) against the in-block linear decode a
//           stateless seek pays; 32 keeps jump-heavy evaluation within 5%
//           of the uncompressed vectors while still compressing >4x.
//
//   dense   a rank-indexed bitmap over the node-id universe, reusing
//           BitVector: CountInRange is two O(1) ranks and FirstInRange one
//           rank + one select. Chosen when occurrences fill more than
//           1/kDenseInverse of the universe, where bitmap bytes undercut
//           even 1-byte varints.
//
// Appending is strictly-ascending and compresses in-pass (the streaming
// LabelPostingsBuilder grows blocks directly from parser events; no
// uncompressed list ever exists). Freeze() makes the list immutable and
// picks the representation.
#ifndef XPWQO_INDEX_POSTINGS_H_
#define XPWQO_INDEX_POSTINGS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/bit_vector.h"
#include "tree/types.h"
#include "util/check.h"
#include "util/status.h"

namespace xpwqo {

/// One label's compressed, immutable-after-Freeze occurrence list.
class PostingList {
 public:
  static constexpr uint32_t kBlockShift = 5;
  static constexpr uint32_t kBlockSize = 1u << kBlockShift;  // ids per block
  /// Dense when count * kDenseInverse >= universe: at that fill the bitmap
  /// (universe/8 bytes + ~25% rank directory) beats even 1-byte deltas.
  static constexpr uint32_t kDenseInverse = 6;

  /// Freeze-time representation override (tests force both paths onto the
  /// same data; production callers use kAuto).
  enum class Rep { kAuto, kSparse, kDense };

  PostingList() = default;
  PostingList(PostingList&& other) noexcept { *this = std::move(other); }
  PostingList& operator=(PostingList&& other) noexcept;
  PostingList(const PostingList& other) { *this = other; }
  PostingList& operator=(const PostingList& other);

  /// Appends an id strictly greater than every previous one. Compresses
  /// in-pass: only the current block tail state lives outside the encoded
  /// bytes. Only valid before Freeze().
  void Append(NodeId id) {
    XPWQO_DCHECK(!frozen_);
    XPWQO_DCHECK(id > last_);
    if ((count_ & (kBlockSize - 1)) == 0) {
      skip_first_.push_back(id);
      skip_offset_.push_back(static_cast<uint32_t>(deltas_.size()));
    } else {
      uint32_t d = static_cast<uint32_t>(id - last_);
      while (d >= 0x80) {
        deltas_.push_back(static_cast<uint8_t>(d | 0x80));
        d >>= 7;
      }
      deltas_.push_back(static_cast<uint8_t>(d));
    }
    last_ = id;
    ++count_;
  }

  /// Picks the representation (bitmap needs the id universe — the document's
  /// node count) and makes the list immutable. Idempotent.
  void Freeze(NodeId universe, Rep rep = Rep::kAuto);

  /// Appends the frozen list's persistent-image payload to `out`: a 16-byte
  /// header {u32 count, u32 flags (bit0 = dense), u32 last, u32 aux}, then
  /// for dense lists {u64 size_bits, raw bitmap words incl. pad}, for
  /// sparse lists {skip_first[nb] i32, skip_offset[nb] u32, delta bytes},
  /// zero-padded to an 8-byte multiple (aux = delta byte count for sparse,
  /// 0 for dense; nb = ceil(count / kBlockSize)). Deterministic: a list
  /// loaded via FromImage re-serializes byte-identically.
  void SerializeTo(std::string* out) const;

  /// Wraps an image payload written by SerializeTo without copying: the
  /// skip tables / delta stream / bitmap words stay in the mapped bytes,
  /// which must outlive the list. `data` must be 8-byte aligned and
  /// `universe` the owning document's node count. Shape and bounds are
  /// validated (sizes, monotone skip tables, ids inside the universe) and
  /// violations return kCorruption; byte-level integrity is the caller's
  /// checksum responsibility.
  static StatusOr<PostingList> FromImage(const uint8_t* data, size_t size,
                                         NodeId universe);

  int32_t size() const { return static_cast<int32_t>(count_); }
  bool empty() const { return count_ == 0; }
  bool frozen() const { return frozen_; }
  bool dense() const { return dense_; }

  /// Smallest stored id >= lo, or kNullNode. Requires Freeze(). Sparse:
  /// binary search of the skip table + one block decode; dense: one rank +
  /// one select.
  NodeId FirstAtLeast(NodeId lo) const;

  /// Number of stored ids < hi. Sparse: skip-table search + partial block
  /// decode; dense: one rank.
  int32_t RankBelow(NodeId hi) const;

  /// Decompresses the whole list (tests, one-shot consumers).
  void Decode(std::vector<NodeId>* out) const;

  /// Monotone streaming reader: SeekGE gallops over skip entries past whole
  /// blocks, then decodes forward from its current position — an
  /// enumeration pays amortized movement, not a fresh front-search per
  /// probe. Copyable, ~40 bytes, no heap state (the merged SetCursor of the
  /// TDSTA run stores several inline; the ASTA evaluator keeps one per
  /// label for its whole run).
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const PostingList& list);

    /// Smallest stored id >= lo, or kNullNode once exhausted. `lo` must be
    /// non-decreasing across calls.
    NodeId SeekGE(NodeId lo);

   private:
    const PostingList* list_ = nullptr;
    const uint8_t* next_ = nullptr;  // sparse: next varint of the block
    NodeId cur_ = kNullNode;         // current head; kNullNode = exhausted
    uint32_t index_ = 0;             // global index of cur_
  };

  /// Bytes of the frozen representation (encoded data + skip/rank tables).
  size_t MemoryUsage() const;
  /// What the same list costs as a plain std::vector<NodeId> — the
  /// pre-compression baseline reported by the bench memory accounting.
  size_t UncompressedBytes() const {
    return sizeof(std::vector<NodeId>) + count_ * sizeof(NodeId);
  }

 private:
  friend class Cursor;

  uint32_t NumBlocks() const { return num_blocks_; }
  /// Ids stored in block b (only the last block can be partial).
  uint32_t BlockCount(uint32_t b) const {
    return b + 1 < NumBlocks() ? kBlockSize
                               : count_ - (b << kBlockShift);
  }
  /// Largest block whose first id is <= bound, assuming skip_first_[0] <=
  /// bound. Plain binary search (the galloping variant lives in Cursor,
  /// where a current position to gallop from exists).
  uint32_t FindBlock(NodeId bound) const;

  /// Points the frozen-reader views at the owned vectors (no-op for
  /// external lists, whose views target the mapped image).
  void SyncViews();

  // Sparse representation; doubles as the pre-Freeze growing state. Owned
  // storage only — empty for external (image-backed) lists.
  std::vector<NodeId> skip_first_;     // per block: first id
  std::vector<uint32_t> skip_offset_;  // per block: delta-stream start
  std::vector<uint8_t> deltas_;        // varint gaps, kBlockSize-1 per block
  // Dense representation (frozen bitmaps only).
  BitVector bits_;

  // Frozen readers go through these views: the vectors above in built mode,
  // pointers into the mapped image in external mode.
  const NodeId* skip_first_v_ = nullptr;
  const uint32_t* skip_offset_v_ = nullptr;
  const uint8_t* deltas_v_ = nullptr;
  uint32_t num_blocks_ = 0;
  uint32_t delta_bytes_ = 0;

  uint32_t count_ = 0;
  NodeId last_ = kNullNode;  // largest appended id
  bool dense_ = false;
  bool frozen_ = false;
  bool external_ = false;  // views target mapped memory, not the vectors
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_POSTINGS_H_
