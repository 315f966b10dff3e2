#include "asta/result_set.h"

#include <algorithm>

#include "util/check.h"

namespace xpwqo {

int32_t NodeListArena::AddRope(Rope r) {
  ropes_.push_back(r);
  return static_cast<int32_t>(ropes_.size()) - 1;
}

NodeList NodeListArena::Singleton(NodeId n) {
  return NodeList{AddRope({n, n, 1, -1, -1, -1, 0})};
}

NodeList NodeListArena::Union(NodeList a, NodeList b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const Rope& ra = ropes_[a.id];
  const Rope& rb = ropes_[b.id];
  if (ra.hi < rb.lo) {
    return NodeList{AddRope(
        {ra.lo, rb.hi, ra.count + rb.count, a.id, b.id, -1, 0})};
  }
  if (rb.hi < ra.lo) {
    return NodeList{AddRope(
        {rb.lo, ra.hi, ra.count + rb.count, b.id, a.id, -1, 0})};
  }
  // Ranges interleave: materialize, merge, deduplicate into a run leaf.
  std::vector<NodeId> va = Materialize(a);
  std::vector<NodeId> vb = Materialize(b);
  std::vector<NodeId> merged;
  merged.reserve(va.size() + vb.size());
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(merged));
  int32_t offset = static_cast<int32_t>(runs_.size());
  runs_.insert(runs_.end(), merged.begin(), merged.end());
  return NodeList{AddRope({merged.front(), merged.back(),
                           static_cast<int32_t>(merged.size()), -1, -1,
                           offset, static_cast<int32_t>(merged.size())})};
}

std::vector<NodeId> NodeListArena::Materialize(NodeList list) const {
  std::vector<NodeId> out;
  if (list.empty()) return out;
  out.reserve(ropes_[list.id].count);
  std::vector<int32_t> stack{list.id};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const Rope& r = ropes_[id];
    if (r.left < 0) {
      if (r.run_offset >= 0) {
        for (int32_t i = 0; i < r.run_len; ++i) {
          out.push_back(runs_[r.run_offset + i]);
        }
      } else {
        out.push_back(r.lo);
      }
    } else {
      stack.push_back(r.right);  // left emitted first
      stack.push_back(r.left);
    }
  }
  XPWQO_DCHECK(std::is_sorted(out.begin(), out.end()));
  return out;
}

void NodeListArena::Reset() {
  ropes_.clear();
  runs_.clear();
}

size_t NodeListArena::MemoryUsage() const {
  return ropes_.capacity() * sizeof(Rope) + runs_.capacity() * sizeof(NodeId);
}

NodeList ResultSet::MarksOf(StateId q) const {
  for (int i = 0; i < count_; ++i) {
    const StateId s = marked_state(i);
    if (s == q) return marked_list(i);
    if (s > q) break;
  }
  return NodeList{};
}

void ResultSet::AddMarks(StateId q, NodeList list, NodeListArena* arena) {
  if (list.empty()) return;
  StateId* states = count_ <= kInlineMarks ? states_ : spill_states_.data();
  NodeList* lists = count_ <= kInlineMarks ? lists_ : spill_lists_.data();
  int i = 0;
  while (i < count_ && states[i] < q) ++i;
  if (i < count_ && states[i] == q) {
    lists[i] = arena->Union(lists[i], list);
    return;
  }
  if (count_ < kInlineMarks) {
    for (int j = count_; j > i; --j) {
      states_[j] = states_[j - 1];
      lists_[j] = lists_[j - 1];
    }
    states_[i] = q;
    lists_[i] = list;
  } else {
    if (count_ == kInlineMarks) {
      spill_states_.assign(states_, states_ + kInlineMarks);
      spill_lists_.assign(lists_, lists_ + kInlineMarks);
    }
    spill_states_.insert(spill_states_.begin() + i, q);
    spill_lists_.insert(spill_lists_.begin() + i, list);
  }
  ++count_;
}

}  // namespace xpwqo
