#include "xml/serializer.h"

#include <fstream>

#include "util/strings.h"

namespace xpwqo {
namespace {

/// Node kinds from the parser's label encoding, so the recursion below
/// works for any XmlNodeSource, not just the Document.
NodeKind KindOfName(const std::string& name) {
  if (!name.empty() && name[0] == '@') return NodeKind::kAttribute;
  if (name == "#text") return NodeKind::kText;
  return NodeKind::kElement;
}

void SerializeRec(const XmlNodeSource& source, NodeId n, int depth,
                  const XmlSerializeOptions& options, std::string* out) {
  const std::string& name = source.Name(n);
  auto indent = [&](int d) {
    if (options.pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(2 * d), ' ');
    }
  };
  switch (KindOfName(name)) {
    case NodeKind::kText:
      indent(depth);
      out->append(XmlEscape(source.Value(n)));
      return;
    case NodeKind::kAttribute:
      // Handled by the parent element below.
      return;
    case NodeKind::kElement:
      break;
  }
  indent(depth);
  out->push_back('<');
  out->append(name);
  // Attributes are the leading "@" children.
  NodeId child = source.FirstChild(n);
  while (child != kNullNode &&
         KindOfName(source.Name(child)) == NodeKind::kAttribute) {
    out->push_back(' ');
    out->append(source.Name(child).substr(1));
    out->append("=\"");
    out->append(XmlEscape(source.Value(child)));
    out->push_back('"');
    child = source.NextSibling(child);
  }
  if (child == kNullNode) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  bool had_element_child = false;
  for (; child != kNullNode; child = source.NextSibling(child)) {
    if (KindOfName(source.Name(child)) == NodeKind::kElement) {
      had_element_child = true;
    }
    SerializeRec(source, child, depth + 1, options, out);
  }
  if (options.pretty && had_element_child) indent(depth);
  out->append("</");
  out->append(name);
  out->push_back('>');
}

/// A Document through the generic view.
class DocumentSource final : public XmlNodeSource {
 public:
  explicit DocumentSource(const Document& doc) : doc_(doc) {}
  NodeId Root() const override { return doc_.root(); }
  NodeId FirstChild(NodeId n) const override { return doc_.first_child(n); }
  NodeId NextSibling(NodeId n) const override { return doc_.next_sibling(n); }
  const std::string& Name(NodeId n) const override {
    return doc_.LabelName(n);
  }
  std::string_view Value(NodeId n) const override { return doc_.text(n); }

 private:
  const Document& doc_;
};

}  // namespace

std::string SerializeXml(const XmlNodeSource& source,
                         const XmlSerializeOptions& options, NodeId node) {
  if (node == kNullNode) node = source.Root();
  std::string out;
  if (node == kNullNode) return out;
  SerializeRec(source, node, 0, options, &out);
  if (options.pretty && !out.empty() && out[0] == '\n') out.erase(0, 1);
  return out;
}

std::string SerializeXml(const Document& doc,
                         const XmlSerializeOptions& options, NodeId node) {
  return SerializeXml(DocumentSource(doc), options, node);
}

Status WriteXmlFile(const Document& doc, const std::string& path,
                    const XmlSerializeOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << SerializeXml(doc, options);
  if (!out) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace xpwqo
