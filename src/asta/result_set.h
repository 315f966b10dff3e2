// Result sets (Definition C.2): mappings from states to sets of selected
// nodes, with the O(1)-concatenation node lists of §4.4 ("Result Sets").
//
// Node lists are persistent ropes in an arena: a list is either empty, a
// single node, a sorted run, or the concatenation of two lists. Because the
// evaluator produces left-subtree marks before right-subtree marks and the
// current node precedes both in preorder, concatenations are almost always
// range-disjoint and cost O(1); overlapping unions (possible when two
// formulas propagate overlapping witness sets) fall back to a merge that
// keeps every list sorted and duplicate-free.
#ifndef XPWQO_ASTA_RESULT_SET_H_
#define XPWQO_ASTA_RESULT_SET_H_

#include <vector>

#include "asta/asta.h"
#include "tree/types.h"

namespace xpwqo {

/// Handle to a node list; meaningful only with its arena. id < 0 = empty.
struct NodeList {
  int32_t id = -1;
  bool empty() const { return id < 0; }
};

/// Arena of rope nodes. Reset() between queries to reclaim memory.
class NodeListArena {
 public:
  NodeList Empty() const { return NodeList{}; }
  NodeList Singleton(NodeId n);

  /// Union of two sorted, duplicate-free lists; O(1) when their ranges do
  /// not interleave, otherwise a merging materialization.
  NodeList Union(NodeList a, NodeList b);

  /// Prepends `n` (the current node, which precedes every node of `list` in
  /// preorder except possibly being equal-free; preorder strictness holds
  /// because marks come from strict subtrees).
  NodeList Cons(NodeId n, NodeList list) { return Union(Singleton(n), list); }

  /// Sorted, duplicate-free vector of the list's nodes.
  std::vector<NodeId> Materialize(NodeList list) const;

  int32_t SizeOf(NodeList list) const {
    return list.empty() ? 0 : ropes_[list.id].count;
  }

  void Reset();
  size_t MemoryUsage() const;

 private:
  struct Rope {
    NodeId lo, hi;        // min/max node in the list
    int32_t count;        // number of nodes
    int32_t left, right;  // child ropes, or -1 for leaves
    int32_t run_offset, run_len;  // for run leaves (-1 otherwise)
  };

  int32_t AddRope(Rope r);

  std::vector<Rope> ropes_;
  std::vector<NodeId> runs_;
};

/// Γ: which states accept the subtree, and the marks collected per state.
/// Marks are stored sorted by state, only for states with non-empty lists.
/// Up to kInlineMarks of them live inline, so building, moving and
/// accumulating result sets costs no heap traffic for realistic automata
/// (the evaluator builds one per visited node); more spill to vectors.
class ResultSet {
 public:
  static constexpr int kInlineMarks = 4;

  ResultSet() = default;
  explicit ResultSet(int num_states) : accepted(num_states) {}

  StateMask accepted;

  /// Number of states with marks, and the i-th of them (ascending states).
  int num_marked() const { return count_; }
  StateId marked_state(int i) const {
    return count_ <= kInlineMarks ? states_[i] : spill_states_[i];
  }
  NodeList marked_list(int i) const {
    return count_ <= kInlineMarks ? lists_[i] : spill_lists_[i];
  }

  NodeList MarksOf(StateId q) const;
  void AddMarks(StateId q, NodeList list, NodeListArena* arena);

 private:
  int count_ = 0;
  StateId states_[kInlineMarks] = {};
  NodeList lists_[kInlineMarks];
  // Hold every mark once count_ exceeds kInlineMarks.
  std::vector<StateId> spill_states_;
  std::vector<NodeList> spill_lists_;
};

}  // namespace xpwqo

#endif  // XPWQO_ASTA_RESULT_SET_H_
