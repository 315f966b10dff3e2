#include "tree/document.h"

namespace xpwqo {

int Document::Depth(NodeId n) const {
  int d = 0;
  for (NodeId p = parent(n); p != kNullNode; p = parent(p)) ++d;
  return d;
}

const std::string& Document::text(NodeId n) const {
  static const std::string kEmpty;
  int32_t idx = text_index_[Check(n)];
  return idx < 0 ? kEmpty : texts_[idx];
}

}  // namespace xpwqo
