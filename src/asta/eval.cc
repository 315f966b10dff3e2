#include "asta/eval.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace xpwqo {
namespace {

using SetId = int32_t;
inline constexpr SetId kNoSet = -1;

/// One satisfied transition in a memoized formula evaluation: rebuildable
/// against any child results with the same acceptance masks.
struct MarkInstr {
  StateId state;
  bool selecting;
  std::vector<std::pair<int, StateId>> atoms;  // (child, state) mark sources
};

struct EvalEntry {
  StateMask accepted;
  std::vector<MarkInstr> instrs;
};

/// Applicable transitions of a (set, label) pair and the state sets they
/// send to the children (Algorithm 4.1, lines 3-4). A memoized step also
/// caches the interned ids of those sets, filled on first use; unlike the
/// step table itself these lookups are not counted as memo hits.
struct Step {
  std::vector<int32_t> transitions;
  StateMask r1;
  StateMask r2;  // without information propagation
  SetId r1_id = kNoSet;
  SetId r2_id = kNoSet;  // r2's id, without information propagation
  // With information propagation, r2 depends on the first child's accepted
  // set: (id of that set, id of the r2 it yields).
  std::vector<std::pair<SetId, SetId>> r2_after;
};

/// A set's jump decision, plus the run-scoped cursors of its essential
/// labels that have postings (the ones a d_t / f_t / r_t probe merges).
struct JumpData {
  JumpInfo info;
  std::vector<int32_t> cursors;  // slots in AstaEvaluator::cursors_
};

/// Exact 128-bit memo key: (set, label) in `a`, (dom1, dom2) in `b`.
/// Labels are offset by 2 so kOtherLabel (= -2) packs as 0.
struct MemoKey {
  uint64_t a;
  uint64_t b;
  bool operator==(const MemoKey& o) const { return a == o.a && b == o.b; }
};
uint64_t HashOf(const MemoKey& k) {
  uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
  h ^= k.b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
MemoKey StepKey(SetId s, LabelId label) {
  return {(static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
              static_cast<uint32_t>(label + 2),
          0};
}
MemoKey EvalKey(SetId s, LabelId label, SetId d1, SetId d2) {
  MemoKey k = StepKey(s, label);
  k.b = (static_cast<uint64_t>(static_cast<uint32_t>(d1)) << 32) |
        static_cast<uint32_t>(d2);
  return k;
}

/// Open-addressed table of dense ids 0, 1, 2, ... (linear probing, load at
/// most 1/2). The owner stores the keys, indexed by id; each slot keeps its
/// id's hash, and a lookup resolves through the owner's equality test. No
/// memory is allocated until the first id is added.
class IdTable {
 public:
  /// The id whose key `eq(id)` accepts. When there is none, registers the
  /// next id (the previous count) under `hash`, sets *added, and returns it;
  /// the caller then appends the key at that id.
  template <typename Eq>
  int32_t FindOrAdd(uint64_t hash, Eq eq, bool* added) {
    if (slots_.empty()) slots_.resize(size_t{1} << kInitialBits);
    const size_t mask = slots_.size() - 1;
    size_t i = SlotOf(hash);
    for (; slots_[i].id != kNoSet; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && eq(slots_[i].id)) {
        *added = false;
        return slots_[i].id;
      }
    }
    const int32_t id = size_++;
    slots_[i] = {hash, id};
    if (2 * static_cast<size_t>(size_) > slots_.size()) Grow();
    *added = true;
    return id;
  }

 private:
  static constexpr int kInitialBits = 4;

  struct Slot {
    uint64_t hash = 0;
    int32_t id = kNoSet;
  };

  // Multiplicative hashing: the top bits of hash * φ·2^64.
  size_t SlotOf(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoSet) continue;
      size_t i = SlotOf(slot.hash);
      while (slots_[i].id != kNoSet) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  int32_t size_ = 0;
  int shift_ = 64 - kInitialBits;
};

class AstaEvaluator {
 public:
  AstaEvaluator(const Asta& asta, const SuccinctTree& tree,
                const TreeIndex* index, const AstaEvalOptions& options)
      : asta_(asta),
        tree_(tree),
        index_(index),
        options_(options),
        tda_(asta),
        num_states_(asta.num_states()),
        monitor_(options.control) {
    XPWQO_CHECK(asta.finalized());
    if (options_.jumping) XPWQO_CHECK(index_ != nullptr);
  }

  AstaEvalResult Run() { return RunAt(tree_.root()); }

  /// The automaton analysis driving this evaluator's jump decisions (the
  /// region stream consults the same instance so its top-level partition
  /// uses exactly the rule Enter applies).
  const TdaAnalysis& tda() const { return tda_; }

  AstaEvalResult RunAt(NodeId start) {
    AstaEvalResult out;
    if (start == kNullNode) return out;
    SetId s0 = InternMask(asta_.TopMask());
    ResultSet gamma = Drive(start, tree_.OpenPos(start), s0);
    out.interrupt = monitor_.stop_code();
    if (out.interrupt == StatusCode::kOk) {
      NodeList all;
      for (StateId q : asta_.tops()) {
        if (gamma.accepted.Get(q)) {
          out.accepted = true;
          all = arena_.Union(all, gamma.MarksOf(q));
        }
      }
      out.nodes = arena_.Materialize(all);
    }
    out.stats = stats_;
    out.stats.interned_sets = static_cast<int64_t>(sets_.size());
    return out;
  }

  /// The run-scoped cursors (slots for FirstPosted) of the members of a
  /// finite essential set that have postings in this document, opening
  /// the ones no earlier set needed.
  void CursorsFor(const LabelSet& essential, std::vector<int32_t>* out) {
    out->clear();
    const LabelIndex& labels = index_->labels();
    for (LabelId l : essential.FiniteMembers()) {
      if (l < 0 || static_cast<size_t>(l) >= labels.NumLists() ||
          labels.Postings(l).empty()) {
        continue;
      }
      const auto it =
          std::find(cursor_labels_.begin(), cursor_labels_.end(), l);
      if (it != cursor_labels_.end()) {
        out->push_back(static_cast<int32_t>(it - cursor_labels_.begin()));
        continue;
      }
      out->push_back(static_cast<int32_t>(cursors_.size()));
      cursors_.emplace_back(labels.Postings(l));
      cursor_labels_.push_back(l);
    }
  }

  /// The d_t / f_t / r_t probe: the smallest node in [lo, hi) labeled with
  /// the label of one of the cursors `slots` (from CursorsFor), or
  /// kNullNode.
  ///
  /// Run-scoped cursors: each label has one forward-only posting cursor,
  /// opened the first time a jump needs it and kept for the evaluator's
  /// lifetime, over every region of a region stream too. A probe thus costs
  /// amortized cursor movement, not a seek from the list head per jump.
  /// This is sound because the lower bounds of all probes of one evaluator
  /// never decrease. Drive visits nodes in binary preorder, and every
  /// probe lies inside the binary subtree it enumerates, so each probe
  /// starts after everything visited or probed before it:
  ///  - entering node c probes from c + 1 (d_t) or from c's XML end (r_t,
  ///    which then only moves forward past sibling subtrees); c follows its
  ///    binary ancestors and every binary subtree finished before it;
  ///  - the next topmost target probes from BinaryEnd(previous target),
  ///    past every probe made inside the previous target's subtree;
  ///  - the region stream's own enumeration probes from BinaryEnd of the
  ///    region just evaluated, and regions come in document order.
  /// (The TDSTA run pushes right before left, so it does not probe in
  /// order and keeps per-enumeration LabelIndex::SetCursors.)
  NodeId FirstPosted(std::span<const int32_t> slots, NodeId lo, NodeId hi) {
    XPWQO_DCHECK(lo >= last_lo_);
    last_lo_ = lo;
    uint32_t best = static_cast<uint32_t>(kNullNode);  // unsigned maximum
    for (int32_t c : slots) {
      best = std::min(best, static_cast<uint32_t>(cursors_[c].SeekGE(lo)));
    }
    const NodeId first = static_cast<NodeId>(best);
    return first < hi ? first : kNullNode;
  }

 private:
  // ------------------------------------------------------------------
  // Determinized state-set interning.
  SetId InternMask(const StateMask& mask) {
    bool added;
    const SetId id = set_table_.FindOrAdd(
        mask.Hash(), [&](SetId i) { return sets_[i] == mask; }, &added);
    if (added) sets_.push_back(mask);
    return id;
  }
  const StateMask& MaskOf(SetId s) const { return sets_[s]; }

  ResultSet EmptyResult() const { return ResultSet(num_states_); }

  // ------------------------------------------------------------------
  // Step computation: applicable transitions and child sets (Algorithm 4.1,
  // lines 3-4).
  void FillStep(SetId s, LabelId label, Step* step) const {
    step->transitions.clear();
    step->r1 = StateMask(num_states_);
    step->r2 = StateMask(num_states_);
    const StateMask& mask = sets_[s];
    for (StateId q = 0; q < num_states_; ++q) {
      if (!mask.Get(q)) continue;
      for (int32_t t : asta_.TransitionsOf(q)) {
        if (!asta_.transitions()[t].labels.Contains(label)) continue;
        step->transitions.push_back(t);
        for (StateId d : tda_.Down1(t)) step->r1.Set(d);
        for (StateId d : tda_.Down2(t)) step->r2.Set(d);
      }
    }
  }

  /// The step of (s, label), as an index for StepAt: into the memo table,
  /// or (memoization off) into the step stack, whose slot the node's frame
  /// holds until it pops.
  int32_t GetStep(SetId s, LabelId label) {
    if (!options_.memoize) {
      if (step_depth_ == step_stack_.size()) step_stack_.emplace_back();
      FillStep(s, label, &step_stack_[step_depth_]);
      return static_cast<int32_t>(step_depth_++);
    }
    const MemoKey key = StepKey(s, label);
    bool added;
    const int32_t id = step_table_.FindOrAdd(
        HashOf(key), [&](int32_t i) { return step_keys_[i] == key; }, &added);
    if (!added) {
      ++stats_.memo_hits;
      return id;
    }
    ++stats_.memo_step_entries;
    step_keys_.push_back(key);
    steps_.emplace_back();
    FillStep(s, label, &steps_.back());
    return id;
  }
  Step& StepAt(int32_t i) {
    return options_.memoize ? steps_[i] : step_stack_[i];
  }

  SetId R1Of(Step* step) {
    if (!options_.memoize) return InternMask(step->r1);
    if (step->r1_id == kNoSet) step->r1_id = InternMask(step->r1);
    return step->r1_id;
  }

  // r2 with information propagation: drop ↓2 needs of transitions already
  // decided by the left child, keeping mark-carrying states (§4.4).
  StateMask ComputeR2(const Step& step, const ResultSet& g1) {
    if (!options_.info_propagation) return step.r2;
    StateMask r2(num_states_);
    auto dom1 = [&](StateId q) { return g1.accepted.Get(q); };
    for (int32_t t : step.transitions) {
      Truth3 v = asta_.formulas().EvalAfterLeft(
          asta_.transitions()[t].formula, dom1);
      if (v == Truth3::kFalse) continue;
      for (StateId d : tda_.Down2(t)) {
        if (v == Truth3::kUnknown || asta_.IsMarking(d)) r2.Set(d);
      }
    }
    return r2;
  }

  /// The set sent to the second child, once the first child returned g1.
  /// Memoized runs also intern g1's accepted set here (into *d1, the eval
  /// memo's key part) and reuse r2 per (step, d1).
  SetId R2Of(Step* step, const ResultSet& g1, SetId* d1) {
    if (!options_.memoize) return InternMask(ComputeR2(*step, g1));
    *d1 = InternMask(g1.accepted);
    if (!options_.info_propagation) {
      if (step->r2_id == kNoSet) step->r2_id = InternMask(step->r2);
      return step->r2_id;
    }
    for (const auto& [from, r2] : step->r2_after) {
      if (from == *d1) return r2;
    }
    const SetId r2 = InternMask(ComputeR2(*step, g1));
    step->r2_after.emplace_back(*d1, r2);
    return r2;
  }

  // ------------------------------------------------------------------
  // Formula evaluation with mark collection (Figure 7).
  bool EvalFormulaMarks(FormulaId f, const StateMask& d1, const StateMask& d2,
                        std::vector<std::pair<int, StateId>>* atoms) {
    const FormulaNode& n = asta_.formulas().node(f);
    switch (n.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAnd: {
        size_t mark = atoms->size();
        if (!EvalFormulaMarks(n.lhs, d1, d2, atoms) ||
            !EvalFormulaMarks(n.rhs, d1, d2, atoms)) {
          atoms->resize(mark);
          return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        // Both true branches contribute their marks (rule (or), case ⊤/⊤).
        size_t mark = atoms->size();
        bool a = EvalFormulaMarks(n.lhs, d1, d2, atoms);
        if (!a) atoms->resize(mark);
        size_t mid = atoms->size();
        bool b = EvalFormulaMarks(n.rhs, d1, d2, atoms);
        if (!b) atoms->resize(mid);
        return a || b;
      }
      case FormulaKind::kNot: {
        // Rule (not): the negation discards marks.
        std::vector<std::pair<int, StateId>> discard;
        return !EvalFormulaMarks(n.lhs, d1, d2, &discard);
      }
      case FormulaKind::kDown1:
        if (!d1.Get(n.state)) return false;
        atoms->emplace_back(1, n.state);
        return true;
      case FormulaKind::kDown2:
        if (!d2.Get(n.state)) return false;
        atoms->emplace_back(2, n.state);
        return true;
    }
    return false;
  }

  EvalEntry ComputeEval(const Step& step, const StateMask& d1,
                        const StateMask& d2) {
    EvalEntry entry;
    entry.accepted = StateMask(num_states_);
    std::vector<std::pair<int, StateId>> atoms;
    for (int32_t t : step.transitions) {
      const AstaTransition& tr = asta_.transitions()[t];
      atoms.clear();
      if (!EvalFormulaMarks(tr.formula, d1, d2, &atoms)) continue;
      entry.accepted.Set(tr.from);
      if (tr.selecting || !atoms.empty()) {
        MarkInstr instr;
        instr.state = tr.from;
        instr.selecting = tr.selecting;
        instr.atoms = atoms;
        entry.instrs.push_back(std::move(instr));
      }
    }
    return entry;
  }

  /// eval_trans (Definition C.3): builds Γ for node n from the child
  /// results, via the memoized evaluation program when enabled. `d1` is
  /// the interned id of g1's accepted set (memoized runs only).
  ResultSet EvalTransitions(SetId s, NodeId n, const Step& step, SetId d1,
                            const ResultSet& g1, const ResultSet& g2) {
    const EvalEntry* entry;
    EvalEntry scratch;
    if (options_.memoize) {
      const MemoKey key =
          EvalKey(s, tree_.label(n), d1, InternMask(g2.accepted));
      bool added;
      const int32_t id = eval_table_.FindOrAdd(
          HashOf(key), [&](int32_t i) { return eval_keys_[i] == key; },
          &added);
      if (!added) {
        ++stats_.memo_hits;
      } else {
        ++stats_.memo_eval_entries;
        eval_keys_.push_back(key);
        evals_.push_back(ComputeEval(step, g1.accepted, g2.accepted));
      }
      entry = &evals_[id];
    } else {
      scratch = ComputeEval(step, g1.accepted, g2.accepted);
      entry = &scratch;
    }
    ResultSet out;
    out.accepted = entry->accepted;
    for (const MarkInstr& instr : entry->instrs) {
      NodeList marks;
      for (auto [child, q] : instr.atoms) {
        marks = arena_.Union(marks, (child == 1 ? g1 : g2).MarksOf(q));
      }
      if (instr.selecting) marks = arena_.Cons(n, marks);
      out.AddMarks(instr.state, marks, &arena_);
    }
    return out;
  }

  // ------------------------------------------------------------------
  // Jump classification per interned set.
  void FillJump(SetId s, JumpData* jump) {
    jump->info = tda_.JumpFor(sets_[s]);
    jump->cursors.clear();
    if (jump->info.kind == LoopKind::kBoth ||
        jump->info.kind == LoopKind::kRight) {
      CursorsFor(jump->info.essential, &jump->cursors);
    }
  }

  /// The jump data of set s: cached per set (jumps_[jump_of_set_[s]]) when
  /// memoizing, recomputed into scratch_jump_ otherwise. The reference
  /// lasts until the next GetJump.
  const JumpData& GetJump(SetId s) {
    if (!options_.memoize) {
      FillJump(s, &scratch_jump_);
      return scratch_jump_;
    }
    if (static_cast<size_t>(s) >= jump_of_set_.size()) {
      jump_of_set_.resize(s + 1, -1);
    }
    if (jump_of_set_[s] < 0) {
      jump_of_set_[s] = static_cast<int32_t>(jumps_.size());
      jumps_.emplace_back();
      FillJump(s, &jumps_.back());
    }
    return jumps_[jump_of_set_[s]];
  }

  // ------------------------------------------------------------------
  // The drive loop. Frames are slim and live in a vector; a node frame's
  // first-child result and a topmost frame's accumulator sit on the separate
  // partial_ stack, and non-memoized runs keep their per-node steps and cursor
  // lists on reused stacks, so frames cost no allocation once the stacks have
  // grown. Frames refer to steps and cursor lists by index, since those
  // containers grow while frames are live. Every frame carries its node's BP
  // position, so child and sibling moves need no select; only jump landings
  // pay one (OpenPos).
  struct Frame {
    enum Kind : uint8_t { kNode, kTopmost };
    Kind kind = kNode;
    uint8_t phase = 0;
    bool early_stop = false;  // kTopmost: stop once every state accepted
    SetId set = kNoSet;
    NodeId node = kNullNode;  // kNode: the node; kTopmost: current target
    int64_t pos = -1;         // BP open position of `node`
    int32_t step = -1;        // kNode, from phase 1 on: StepAt index
    SetId d1 = kNoSet;        // kNode, memoized: id of Γ1's accepted set
    NodeId scope_end = kNullNode;  // kTopmost: BinaryEnd(scope), hoisted
    int32_t cursors = -1;          // kTopmost: CursorsOf index
  };

  /// A topmost frame's cursor slots: its set's cached jump data when
  /// memoizing, else the cursor stack slot it holds.
  std::span<const int32_t> CursorsOf(const Frame& f) const {
    return options_.memoize ? jumps_[f.cursors].cursors
                            : cursor_stack_[f.cursors];
  }

  void PushNode(NodeId n, int64_t pos, SetId s) {
    Frame f;
    f.kind = Frame::kNode;
    f.node = n;
    f.pos = pos;
    f.set = s;
    frames_.push_back(f);
  }

  /// Pops the top frame and releases what it borrowed from the
  /// non-memoized step and cursor stacks.
  void PopFrame() {
    if (!options_.memoize) {
      if (frames_.back().kind == Frame::kNode) {
        --step_depth_;
      } else {
        --cursor_depth_;
      }
    }
    frames_.pop_back();
  }

  /// Enters the child subtree rooted at `c` (BP position `pos`) with
  /// determinized set `s`. Either pushes frames (returns true) or resolves
  /// immediately into ret_ (returns false).
  bool Enter(NodeId c, int64_t pos, SetId s) {
    if (c == kNullNode || MaskOf(s).None()) {
      ret_ = EmptyResult();
      return false;
    }
    if (options_.jumping) {
      const JumpData& jump = GetJump(s);
      if (jump.info.kind != LoopKind::kNone &&
          !jump.info.essential.Contains(tree_.label(c))) {
        ++stats_.jumps;
        switch (jump.info.kind) {
          case LoopKind::kBoth: {
            // One BinaryEnd for the whole enumeration; d_t is the first
            // probe, f_t the subsequent ones.
            const NodeId scope_end = tree_.BinaryEndAt(c, pos);
            const NodeId m = FirstPosted(jump.cursors, c + 1, scope_end);
            if (m == kNullNode) break;
            Frame f;
            f.kind = Frame::kTopmost;
            f.node = m;
            f.pos = tree_.OpenPos(m);
            f.set = s;
            f.scope_end = scope_end;
            f.early_stop = jump.info.all_nonmarking;
            if (options_.memoize) {
              f.cursors = jump_of_set_[s];
            } else {
              if (cursor_depth_ == cursor_stack_.size()) {
                cursor_stack_.emplace_back();
              }
              cursor_stack_[cursor_depth_] = jump.cursors;
              f.cursors = static_cast<int32_t>(cursor_depth_++);
            }
            frames_.push_back(f);
            partial_.push_back(EmptyResult());  // the accumulator
            return true;
          }
          case LoopKind::kLeft: {
            for (NodePos x = tree_.FirstChildAt(c, pos); x.node != kNullNode;
                 x = tree_.FirstChildAt(x.node, x.pos)) {
              if (jump.info.essential.Contains(tree_.label(x.node))) {
                PushNode(x.node, x.pos, s);
                return true;
              }
            }
            break;
          }
          case LoopKind::kRight: {
            const NodePos m = RightPathFirst(c, pos, jump.cursors);
            if (m.node == kNullNode) break;
            PushNode(m.node, m.pos, s);
            return true;
          }
          case LoopKind::kNone:
            break;
        }
        // No essential node in range: the whole region evaluates to ∅.
        ret_ = EmptyResult();
        return false;
      }
    }
    PushNode(c, pos, s);
    return true;
  }

  /// r_t(c, L) (TreeIndex::RightPathFirst) on positions and the run-scoped
  /// cursors: the first node of c's next-sibling chain, c excluded, labeled
  /// in the labels of `cursors`. A match nested inside a sibling's subtree
  /// resumes the probe past that sibling. The probes start at c's XML end,
  /// after every node visited so far, as FirstPosted requires.
  NodePos RightPathFirst(NodeId c, int64_t pos,
                         std::span<const int32_t> cursors) {
    const int depth = tree_.DepthAt(c, pos);
    const NodeId hi = tree_.BinaryEndAt(c, pos);
    NodeId lo = tree_.XmlEndAt(c, pos);  // c's next sibling, if any
    while (lo < hi) {
      const NodeId m = FirstPosted(cursors, lo, hi);
      if (m == kNullNode) break;
      const NodePos top = tree_.AncestorAt(m, tree_.OpenPos(m), depth);
      if (top.node == m) return top;  // on the spine
      lo = tree_.XmlEndAt(top.node, top.pos);
    }
    return {};
  }

  static void Accumulate(ResultSet* acc, const ResultSet& val,
                         NodeListArena* arena) {
    acc->accepted.UnionWith(val.accepted);
    for (int i = 0; i < val.num_marked(); ++i) {
      acc->AddMarks(val.marked_state(i), val.marked_list(i), arena);
    }
  }

  ResultSet Drive(NodeId root, int64_t root_pos, SetId s0) {
    if (!Enter(root, root_pos, s0)) return std::move(ret_);
    while (!frames_.empty()) {
      // Pushing may reallocate frames_: `f` is not used after a push.
      Frame& f = frames_.back();
      if (f.kind == Frame::kNode) {
        switch (f.phase) {
          case 0: {
            ++stats_.nodes_visited;
            if (monitor_.Charge()) {
              // Deadline / cancel / budget tripped: abandon the drive.
              // Frames are cleared so the next while test exits; a later
              // RunAt on the same evaluator (region streaming) keeps
              // reporting the stop through monitor_.stopped().
              frames_.clear();
              partial_.clear();
              step_depth_ = 0;
              cursor_depth_ = 0;
              ret_ = EmptyResult();
              continue;
            }
            f.step = GetStep(f.set, tree_.label(f.node));
            Step& step = StepAt(f.step);
            if (step.transitions.empty()) {
              PopFrame();
              ret_ = EmptyResult();
              continue;
            }
            f.phase = 1;
            const SetId r1 = R1Of(&step);
            const NodePos left = tree_.FirstChildAt(f.node, f.pos);
            Enter(left.node, left.pos, r1);  // immediate results land in ret_
            continue;
          }
          case 1: {
            f.phase = 2;
            partial_.push_back(std::move(ret_));  // Γ1
            const SetId r2 = R2Of(&StepAt(f.step), partial_.back(), &f.d1);
            const NodePos right = tree_.NextSiblingAt(f.node, f.pos);
            Enter(right.node, right.pos, r2);
            continue;
          }
          case 2: {
            ResultSet result = EvalTransitions(
                f.set, f.node, StepAt(f.step), f.d1, partial_.back(), ret_);
            partial_.pop_back();
            PopFrame();
            ret_ = std::move(result);
            continue;
          }
        }
      } else {  // kTopmost
        if (f.phase == 0) {
          f.phase = 1;
          PushNode(f.node, f.pos, f.set);
          continue;
        }
        ResultSet& acc = partial_.back();
        Accumulate(&acc, ret_, &arena_);
        // One-witness early exit: when no state of the set carries marks and
        // every state has already accepted, further witnesses cannot change
        // the result set.
        if (f.early_stop && acc.accepted == MaskOf(f.set)) {
          ret_ = std::move(acc);
          partial_.pop_back();
          PopFrame();
          continue;
        }
        const NodeId next = FirstPosted(
            CursorsOf(f), tree_.BinaryEndAt(f.node, f.pos), f.scope_end);
        if (next != kNullNode) {
          ++stats_.jumps;
          f.node = next;
          f.pos = tree_.OpenPos(next);
          PushNode(f.node, f.pos, f.set);
          continue;
        }
        ret_ = std::move(acc);
        partial_.pop_back();
        PopFrame();
        continue;
      }
    }
    return std::move(ret_);
  }

  const Asta& asta_;
  const SuccinctTree& tree_;
  const TreeIndex* index_;
  AstaEvalOptions options_;
  TdaAnalysis tda_;
  int num_states_;

  NodeListArena arena_;
  std::vector<StateMask> sets_;
  IdTable set_table_;
  // Memo tables (memoized runs only).
  IdTable step_table_;
  std::vector<MemoKey> step_keys_;
  std::vector<Step> steps_;
  IdTable eval_table_;
  std::vector<MemoKey> eval_keys_;
  std::vector<EvalEntry> evals_;
  std::vector<JumpData> jumps_;
  std::vector<int32_t> jump_of_set_;  // index into jumps_, or -1
  // Non-memoized runs: per-node steps and per-enumeration cursor lists,
  // held by the frames above them.
  std::vector<Step> step_stack_;
  size_t step_depth_ = 0;
  std::vector<std::vector<int32_t>> cursor_stack_;
  size_t cursor_depth_ = 0;
  JumpData scratch_jump_;

  // Run-scoped posting cursors (FirstPosted) and their labels.
  std::vector<PostingList::Cursor> cursors_;
  std::vector<LabelId> cursor_labels_;
  NodeId last_lo_ = 0;

  std::vector<Frame> frames_;
  std::vector<ResultSet> partial_;  // Γ1 per node frame, acc per topmost
  ResultSet ret_;
  AstaEvalStats stats_;
  ExecMonitor monitor_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AstaRegionStream: lazy region-by-region driving of the evaluator above.

class AstaRegionStream::Impl {
 public:
  Impl(const Asta& asta, const SuccinctTree& tree, const TreeIndex* index,
       const AstaEvalOptions& options)
      : tree_(tree), eval_(asta, tree, index, options) {
    const NodeId root = tree_.root();
    if (root == kNullNode) {
      done_ = true;
      return;
    }
    // Mirror the evaluator's top-level Enter: when the top determinized set
    // jumps on both children and the root label is non-essential, the
    // topmost essential nodes partition the result-bearing subtrees.
    if (options.jumping && index != nullptr) {
      const JumpInfo jump = eval_.tda().JumpFor(asta.TopMask());
      if (jump.kind == LoopKind::kBoth &&
          !jump.essential.Contains(tree_.label(root))) {
        streaming_ = true;
        scope_end_ = tree_.BinaryEnd(root);
        eval_.CursorsFor(jump.essential, &top_cursors_);
        next_lo_ = root + 1;
        return;
      }
    }
    single_root_ = root;
  }

  bool NextRegion(std::vector<NodeId>* out) {
    if (done_) return false;
    if (!streaming_) {
      done_ = true;
      AstaEvalResult r = eval_.RunAt(single_root_);
      stats_ = r.stats;
      if (r.interrupt != StatusCode::kOk) {
        interrupt_ = r.interrupt;  // partial region: never emitted
        return false;
      }
      out->insert(out->end(), r.nodes.begin(), r.nodes.end());
      return true;
    }
    // The enumeration probes through the evaluator's run-scoped cursors;
    // its lower bounds interleave in order with the regions' own probes.
    NodeId m = eval_.FirstPosted(top_cursors_, next_lo_, scope_end_);
    ++enum_jumps_;
    // Regions whose whole span precedes the seek target contain no wanted
    // match; step over them without driving the automaton.
    while (m != kNullNode && tree_.BinaryEnd(m) <= skip_to_) {
      m = eval_.FirstPosted(top_cursors_, tree_.BinaryEnd(m), scope_end_);
      ++enum_jumps_;
    }
    if (m == kNullNode) {
      done_ = true;
      return false;
    }
    next_lo_ = tree_.BinaryEnd(m);
    AstaEvalResult r = eval_.RunAt(m);  // cumulative stats (shared evaluator)
    stats_ = r.stats;
    if (r.interrupt != StatusCode::kOk) {
      interrupt_ = r.interrupt;  // partial region: never emitted
      done_ = true;
      return false;
    }
    out->insert(out->end(), r.nodes.begin(), r.nodes.end());
    return true;
  }

  void SkipTo(NodeId target) { skip_to_ = std::max(skip_to_, target); }

  const AstaEvalStats& stats() const {
    merged_ = stats_;
    merged_.jumps += enum_jumps_;
    return merged_;
  }

  bool streaming() const { return streaming_; }

  StatusCode interrupt() const { return interrupt_; }

 private:
  const SuccinctTree& tree_;
  AstaEvaluator eval_;  // persists: memo tables span regions
  bool streaming_ = false;
  bool done_ = false;
  NodeId single_root_ = kNullNode;
  NodeId scope_end_ = kNullNode;
  NodeId next_lo_ = 0;
  NodeId skip_to_ = 0;
  int64_t enum_jumps_ = 0;
  StatusCode interrupt_ = StatusCode::kOk;
  std::vector<int32_t> top_cursors_;  // the top set's essential cursors
  AstaEvalStats stats_;
  mutable AstaEvalStats merged_;
};

AstaRegionStream::AstaRegionStream(const Asta& asta, const SuccinctTree& tree,
                                   const TreeIndex* index,
                                   const AstaEvalOptions& options)
    : impl_(std::make_unique<Impl>(asta, tree, index, options)) {}

AstaRegionStream::AstaRegionStream(AstaRegionStream&&) noexcept = default;
AstaRegionStream& AstaRegionStream::operator=(AstaRegionStream&&) noexcept =
    default;
AstaRegionStream::~AstaRegionStream() = default;

bool AstaRegionStream::streaming() const { return impl_->streaming(); }
bool AstaRegionStream::NextRegion(std::vector<NodeId>* out) {
  return impl_->NextRegion(out);
}
void AstaRegionStream::SkipTo(NodeId target) { impl_->SkipTo(target); }
const AstaEvalStats& AstaRegionStream::stats() const { return impl_->stats(); }
StatusCode AstaRegionStream::interrupt() const { return impl_->interrupt(); }

AstaEvalResult EvalAsta(const Asta& asta, const SuccinctTree& tree,
                        const TreeIndex* index,
                        const AstaEvalOptions& options) {
  return AstaEvaluator(asta, tree, index, options).Run();
}

AstaEvalResult EvalAstaAt(const Asta& asta, const SuccinctTree& tree,
                          const TreeIndex* index, NodeId start,
                          const AstaEvalOptions& options) {
  return AstaEvaluator(asta, tree, index, options).RunAt(start);
}

}  // namespace xpwqo
