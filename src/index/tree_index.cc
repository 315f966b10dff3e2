#include "index/tree_index.h"

namespace xpwqo {

NodeId TreeIndex::FirstBinaryDescendant(NodeId n, const LabelSet& set) const {
  return labels_.FirstInRange(set, n + 1, BinaryEnd(n));
}

NodeId TreeIndex::NextTopmost(NodeId m, const LabelSet& set,
                              NodeId scope) const {
  // The binary subtree of m ends at BinaryEnd(m); the next topmost node is
  // the first match at or after that boundary, still inside the scope.
  return labels_.FirstInRange(set, BinaryEnd(m), BinaryEnd(scope));
}

NodeId TreeIndex::LeftPathFirst(NodeId n, const LabelSet& set) const {
  for (NodeId c = FirstChild(n); c != kNullNode; c = FirstChild(c)) {
    if (set.Contains(Label(c))) return c;
  }
  return kNullNode;
}

NodeId TreeIndex::RightPathFirst(NodeId n, const LabelSet& set) const {
  // The right-most binary path below n is n's chain of next-siblings. A
  // sibling starts exactly at the XmlEnd of its predecessor, so we can probe
  // the label index from there and, when a match falls inside a sibling's
  // subtree rather than on the spine, skip past that subtree.
  const NodeId parent = Parent(n);
  const NodeId hi = BinaryEnd(n);
  NodeId pos = XmlEnd(n);  // start of n's next sibling, if any
  while (pos < hi) {
    NodeId m = labels_.FirstInRange(set, pos, hi);
    if (m == kNullNode) return kNullNode;
    if (Parent(m) == parent) return m;  // on the spine
    // m is nested inside a sibling subtree; hop to that sibling's end by
    // walking up to the spine level.
    NodeId top = m;
    while (Parent(top) != parent) top = Parent(top);
    pos = XmlEnd(top);
  }
  return kNullNode;
}

}  // namespace xpwqo
