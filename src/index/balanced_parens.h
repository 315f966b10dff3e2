// Balanced-parentheses operations (findclose / findopen / enclose / excess)
// over a BitVector, implemented as a range-min-max (rmM) structure in the
// spirit of Sadakane & Navarro's fully-functional succinct trees [18].
//
// Three resolution levels cover the excess sequence: per-word packed
// {min, max, total} prefix-excess summaries, 512-bit block leaves caching
// the absolute excess at the block start plus min/max inside, and a
// complete binary tree of min/max ranges over the blocks. Excess moves by
// ±1 per position, so a region can contain a target excess exactly when
// target ∈ [min, max]. A search scans the starting block (bytes via 8-bit
// lookup tables, then 64 positions per word-metadata probe), locates the
// nearest candidate block via a 16-leaf linear probe then the tree, and
// finishes with one more block scan. FindClose/FindOpen/Enclose search for
// the fixed excess offset -1, which 16-bit window tables resolve in one
// lookup for the near matches that dominate tree navigation; Excess itself
// is O(1) through the bit vector's rank9 directory. Worst case stays
// O(log(n/512)) per operation.
#ifndef XPWQO_INDEX_BALANCED_PARENS_H_
#define XPWQO_INDEX_BALANCED_PARENS_H_

#include <cstdint>
#include <vector>

#include "index/bit_vector.h"

namespace xpwqo {

/// Parenthesis navigation over a frozen BitVector where 1 = '(' and 0 = ')'.
class BalancedParens {
 public:
  static constexpr int64_t kNotFound = -2;

  BalancedParens() = default;

  /// Builds the rmM directory. `bits` must outlive this object and be
  /// frozen and balanced.
  explicit BalancedParens(const BitVector* bits);

  int64_t size() const { return static_cast<int64_t>(bits_->size()); }

  bool IsOpen(int64_t i) const { return bits_->Get(static_cast<size_t>(i)); }

  /// excess(i) = (#opens - #closes) among positions [0, i]. excess(-1) = 0.
  /// O(1): one rank9 directory read.
  int64_t Excess(int64_t i) const {
    if (i < 0) return 0;
    const size_t r1 = bits_->Rank1(static_cast<size_t>(i) + 1);
    return 2 * static_cast<int64_t>(r1) - (i + 1);
  }

  /// Position of the close paren matching the open at i.
  int64_t FindClose(int64_t i) const;

  /// Position of the open paren matching the close at j.
  int64_t FindOpen(int64_t j) const;

  /// Position of the open paren of the pair most tightly enclosing the pair
  /// opened at i; kNotFound if none (i is the outermost pair).
  int64_t Enclose(int64_t i) const;

  /// Smallest j >= from with Excess(j) == target, or kNotFound.
  int64_t FwdSearchExcess(int64_t from, int64_t target) const;

  /// FwdSearchExcess with e_before = Excess(from - 1) already known, for
  /// 0 <= from < size(): no rank read unless the answer lies beyond the
  /// starting block. FindClose etc. derive e_before from the excess they
  /// computed; SuccinctTree's position-carrying navigation derives it from
  /// the node id.
  int64_t FwdSearchExcessFrom(int64_t from, int64_t target,
                              int64_t e_before) const;

  /// Largest q <= from with Excess(q) == target; -1 counts as a virtual
  /// position with excess 0. kNotFound if none.
  int64_t BwdSearchExcess(int64_t from, int64_t target) const;

  /// BwdSearchExcess with e_at = Excess(from) already known, for
  /// 0 <= from < size().
  int64_t BwdSearchExcessFrom(int64_t from, int64_t target,
                              int64_t e_at) const;

  size_t MemoryUsage() const;

 private:
  static constexpr int64_t kBlockBits = 512;
  static constexpr int64_t kFanout = 8;  // rmM hierarchy children per node

  int Delta(int64_t i) const { return IsOpen(i) ? 1 : -1; }

  /// Bits p..p+63 as a 64-bit value (zero-padded past size()); p < size().
  /// Branchless two-word read — the bit vector pads one word past the data.
  uint64_t Window64(int64_t p) const {
    const size_t w = static_cast<size_t>(p) >> 6;
    const int sh = static_cast<int>(p & 63);
    const uint64_t lo = bits_->Word(w) >> sh;
    const uint64_t hi = (bits_->Word(w + 1) << (63 - sh)) << 1;
    return lo | hi;
  }
  /// Bits p..p+15 as a 16-bit value.
  uint32_t Window16(int64_t p) const {
    return static_cast<uint32_t>(Window64(p) & 0xFFFF);
  }

  /// The byte of the parenthesis string covering positions [i, i+8) for
  /// byte-aligned i.
  uint8_t Byte(int64_t i) const {
    return static_cast<uint8_t>(bits_->Word(static_cast<size_t>(i) >> 6) >>
                                (i & 56));
  }

  /// Bytewise scan of positions [p, lim), entering with e = Excess(p - 1).
  /// Returns the first position with excess == target, or kNotFound with e
  /// advanced to Excess(lim - 1). lim is byte-aligned or equals size().
  int64_t BytesFwd(int64_t p, int64_t lim, int64_t target, int64_t* e) const;
  /// Bytewise scan of positions p down to lim (inclusive), entering with
  /// e = Excess(p). Returns the last position with excess == target, or
  /// kNotFound with e rewound to Excess(lim - 1). lim is byte-aligned.
  int64_t BytesBwd(int64_t p, int64_t lim, int64_t target, int64_t* e) const;

  /// Scans block b forward over positions [from, block end), entering with
  /// e = Excess(from - 1): the entry word bytewise, the rest via the
  /// per-word min/max metadata (64 positions per probe). Returns the first
  /// position with excess == target, or kNotFound.
  int64_t ScanFwdBlock(int64_t b, int64_t from, int64_t target,
                       int64_t e) const;
  /// Scans block b backward over positions [block start, from], entering
  /// with e = Excess(from). Returns the last position with excess == target,
  /// or kNotFound.
  int64_t ScanBwdBlock(int64_t b, int64_t from, int64_t target,
                       int64_t e) const;

  /// Largest q <= from with Excess(q) == Excess(from) - 1 — the shared core
  /// of FindOpen and Enclose. Returns -1 for the virtual root position
  /// (possible only when that excess is 0), kNotFound if absent.
  int64_t BwdMinus1(int64_t from) const;

  /// Smallest leaf block index > b whose excess range contains target, or -1.
  int64_t NextCandidateBlock(int64_t b, int64_t target) const;
  /// Largest leaf block index < b whose excess range contains target, or -1.
  int64_t PrevCandidateBlock(int64_t b, int64_t target) const;

  const BitVector* bits_ = nullptr;
  int64_t num_blocks_ = 0;
  std::vector<int32_t> block_excess_;  // excess before each block start
  // rmM hierarchy over the blocks with fanout 8: level 0 holds interleaved
  // {min, max} per block, level k per group of 8^k blocks. A group's 8
  // pairs are 64 contiguous bytes — one cache line — so a candidate search
  // pays one dependent load per level and the hierarchy is only
  // ~log8(blocks) deep (4 levels for a million-node document, vs 13
  // dependent probes for a binary tree).
  std::vector<std::vector<int32_t>> level_mm_;
  // Word-granularity rmM level: per 64-bit word, packed {min prefix excess
  // (int8), max prefix excess (int8), total excess (int8)} over the word's
  // valid bits, relative to the word start. Lets the block scans skip 64
  // positions per probe instead of 8.
  std::vector<uint32_t> word_meta_;
};

}  // namespace xpwqo

#endif  // XPWQO_INDEX_BALANCED_PARENS_H_
