// Serializes a Document back to XML text (round-trip of the parser's
// encoding: "@name" children become attributes, "#text" children character
// data).
#ifndef XPWQO_XML_SERIALIZER_H_
#define XPWQO_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "tree/document.h"
#include "util/status.h"

namespace xpwqo {

struct XmlSerializeOptions {
  /// Indent nested elements by two spaces and add newlines.
  bool pretty = false;
};

/// Tree view the serializer walks. Node kinds follow the parser's label
/// encoding ("@name" → attribute, "#text" → character data), so any tree
/// that exposes names and values serializes without a pointer Document —
/// the engine adapts its succinct tree plus TextStore to this interface.
class XmlNodeSource {
 public:
  virtual ~XmlNodeSource() = default;
  virtual NodeId Root() const = 0;
  virtual NodeId FirstChild(NodeId n) const = 0;
  virtual NodeId NextSibling(NodeId n) const = 0;
  virtual const std::string& Name(NodeId n) const = 0;
  /// Value of an attribute or text node (empty for elements).
  virtual std::string_view Value(NodeId n) const = 0;
};

/// Serializes the subtree rooted at `node` (defaults to the document root).
std::string SerializeXml(const Document& doc,
                         const XmlSerializeOptions& options = {},
                         NodeId node = kNullNode);

/// Serializes any tree through the XmlNodeSource view.
std::string SerializeXml(const XmlNodeSource& source,
                         const XmlSerializeOptions& options = {},
                         NodeId node = kNullNode);

/// Writes the serialized document to `path`.
Status WriteXmlFile(const Document& doc, const std::string& path,
                    const XmlSerializeOptions& options = {});

}  // namespace xpwqo

#endif  // XPWQO_XML_SERIALIZER_H_
