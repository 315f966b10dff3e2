// ASTA evaluation (Algorithm 4.1) with the paper's optimizations as
// independent switches, matching the four series of Figure 4:
//   Naive Eval.   {jumping = false, memoize = false}
//   Jumping Eval. {jumping = true,  memoize = false}
//   Memo. Eval.   {jumping = false, memoize = true}
//   Opt. Eval.    {jumping = true,  memoize = true}
// plus information propagation (§4.4) as a further toggle (on by default;
// bench/ablation_infoprop measures it).
//
// The evaluator is a bottom-up pass with top-down pre-processing (§4.3): the
// recursion carries the determinized state-set r, restricting which states
// the bottom-up result must report. It runs on an explicit stack — sibling
// chains become right-spine recursion under the fcns encoding, so the call
// stack would otherwise be O(max fan-out).
//
// What a visited node costs. The paper's speed rests on touching few nodes
// and on each touch being cheap (§4.4). The drive loop keeps the per-node
// bookkeeping small:
//  - Frames carry each node's balanced-parentheses position, so first-child
//    and next-sibling moves need no select (SuccinctTree::FirstChildAt and
//    friends); only a jump landing pays one.
//  - Jumps probe run-scoped posting cursors: one forward-only cursor per
//    label, opened the first time a jump needs it and kept for the
//    evaluator's lifetime, across all regions of an AstaRegionStream too.
//    This is sound because the lower bounds of one evaluator's probes never
//    decrease. The evaluator visits nodes in binary preorder and probes only
//    ranges that start after everything visited so far: entering node c
//    probes from c + 1 (d_t) or from c's XML end (r_t), the next topmost
//    target from the previous target's BinaryEnd (f_t), and the region stream
//    from the end of the region it just evaluated. A debug check enforces it.
//  - State sets are interned in a flat open-addressed table; memoized steps
//    cache the ids of the child sets they send down (never counted as memo
//    hits, so the Figure-4 counters keep their meaning).
//  - Frames live in a vector, partial results on a separate stack, and
//    result sets keep up to four mark lists inline, so a memoized run does
//    no heap allocation per node beyond the amortized growth of these
//    stacks and of the node-list arena.
#ifndef XPWQO_ASTA_EVAL_H_
#define XPWQO_ASTA_EVAL_H_

#include <memory>
#include <vector>

#include "asta/asta.h"
#include "asta/result_set.h"
#include "asta/tda.h"
#include "index/tree_index.h"
#include "util/exec_control.h"

namespace xpwqo {

struct AstaEvalOptions {
  /// Jump to (the approximation of) relevant nodes via the label index.
  bool jumping = true;
  /// Memoize transition lookups and formula evaluations (§4.4).
  bool memoize = true;
  /// Evaluate formulas after the first child to prune the second child's
  /// state set and enforce one-witness predicate semantics (§4.4).
  bool info_propagation = true;
  /// Deadline / cancellation / visited-node budget, or null for ungoverned
  /// evaluation (the default; costs one decrement per visited node). On a
  /// trip the run stops mid-drive and AstaEvalResult::interrupt carries
  /// the code; the partial node set must be discarded.
  const ExecControl* control = nullptr;
};

struct AstaEvalStats {
  /// Nodes on which transitions were evaluated (Figure 3 lines (2)/(3)).
  int64_t nodes_visited = 0;
  /// Jumping moves performed (d_t / f_t / l_t / r_t uses).
  int64_t jumps = 0;
  /// Distinct entries in the (set,label) step table and the formula
  /// evaluation table; their sum is the count of nodes that paid the |Q|
  /// factor (Figure 3 line (4)).
  int64_t memo_step_entries = 0;
  int64_t memo_eval_entries = 0;
  int64_t memo_hits = 0;
  /// Distinct determinized state sets seen (size of the tda on-the-fly
  /// construction).
  int64_t interned_sets = 0;
  /// Hits served by the engine's compiled-query LRU when the run came in
  /// through the string overload (cumulative per engine; the evaluators
  /// themselves leave this 0).
  int64_t query_cache_hits = 0;
};

struct AstaEvalResult {
  /// Whether some top state accepted at the root (t ∈ L(A)).
  bool accepted = false;
  /// Selected nodes, document order, duplicate-free.
  std::vector<NodeId> nodes;
  AstaEvalStats stats;
  /// kOk for a completed run; kDeadlineExceeded / kCancelled /
  /// kResourceExhausted when ExecControl stopped it early. An interrupted
  /// result's `nodes` and `accepted` are partial garbage — discard them.
  StatusCode interrupt = StatusCode::kOk;
};

/// Evaluates `asta` (finalized) over the tree. `index` may be null when
/// options.jumping is false; with it, all four Figure-4 configurations run
/// through the balanced-parentheses kernels and the label postings.
AstaEvalResult EvalAsta(const Asta& asta, const SuccinctTree& tree,
                        const TreeIndex* index,
                        const AstaEvalOptions& options = {});

/// Evaluates over the *binary* subtree rooted at `start` (i.e. the preorder
/// range [start, BinaryEnd(start))) with the automaton's top state-set. The
/// hybrid strategy uses this to run a suffix query below a pivot node:
/// passing tree.BinaryLeft(pivot) evaluates over the pivot's strict XML
/// descendants.
AstaEvalResult EvalAstaAt(const Asta& asta, const SuccinctTree& tree,
                          const TreeIndex* index, NodeId start,
                          const AstaEvalOptions& options = {});

/// Incremental, document-order evaluation: when the automaton's top
/// determinized set jumps (LoopKind::kBoth with a finite essential set and a
/// non-essential root label), the document decomposes into the disjoint
/// binary subtrees of the topmost essential nodes, enumerated in document
/// order. Each NextRegion() call evaluates exactly one such region and
/// appends its matches (ascending, all beyond earlier regions), so a LIMIT-k
/// consumer stops jumping after the region containing the k-th match instead
/// of sweeping the document. One evaluator instance persists across regions,
/// so memo tables and interned state sets are shared exactly as in a
/// monolithic run.
///
/// Soundness caveat: a region's marks are emitted as final, which requires
/// an automaton where every created mark survives to an accepted top state.
/// That holds for predicate-free XPath compilations (selection queries never
/// reject a tree and their formulas are positive) — the condition
/// PreparedQuery::streamable() checks. For other automata, or when the top
/// set cannot jump, the stream degenerates to a single region that is the
/// plain full run (streaming() returns false), which is always correct.
class AstaRegionStream {
 public:
  AstaRegionStream(const Asta& asta, const SuccinctTree& tree,
                   const TreeIndex* index, const AstaEvalOptions& options = {});
  AstaRegionStream(AstaRegionStream&&) noexcept;
  AstaRegionStream& operator=(AstaRegionStream&&) noexcept;
  ~AstaRegionStream();

  /// True when the document decomposes into more than one lazily-enumerated
  /// region; false when NextRegion runs the whole document at once.
  bool streaming() const;

  /// Appends the next region's matches to `out` (possibly none — a region
  /// may prove empty). Returns false when the enumeration is exhausted.
  bool NextRegion(std::vector<NodeId>* out);

  /// Regions ending at or before `target` are skipped without evaluation
  /// (their matches all precede `target`). Lower bounds must not decrease.
  void SkipTo(NodeId target);

  /// Cumulative work so far (evaluator counters plus enumeration jumps).
  const AstaEvalStats& stats() const;

  /// kOk until an ExecControl limit stops a region evaluation; then the
  /// stop code. Once set, NextRegion() returns false (the partial region
  /// is never emitted).
  StatusCode interrupt() const;

  class Impl;  // defined in eval.cc

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xpwqo

#endif  // XPWQO_ASTA_EVAL_H_
