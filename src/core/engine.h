// Engine: one document plus its index — the per-document slice of the
// serving surface. Every strategy but the node-set baseline evaluates on
// the succinct index (SuccinctTree + LabelIndex + TextStore). Queries are
// prepared once (PreparedQuery), results pull through a streaming
// ResultCursor, and many engines sharing one Alphabet form a Collection
// (collection.h) that a single prepared query spans.
//
//   Collection library;
//   XPWQO_RETURN_IF_ERROR(library.AddXmlFile("2024", "sales-2024.xml"));
//   XPWQO_RETURN_IF_ERROR(
//       library.AddXmlFile("2025", "sales-2025.xml",
//                          {.backend = TreeBackend::kSuccinct}));
//   // Compile once against the shared alphabet, run on every document:
//   XPWQO_ASSIGN_OR_RETURN(PreparedQuery q,
//                          library.Prepare("//listitem//keyword"));
//   for (const std::string& name : library.names()) {
//     XPWQO_ASSIGN_OR_RETURN(ResultCursor cursor,
//                            library.OpenCursor(name, q));
//     for (NodeId n = cursor.Next(); n != kNullNode; n = cursor.Next()) {
//       ...  // stop any time: LIMIT-k never sweeps the rest of the tree
//     }
//   }
//
// The "2024" document keeps its parsed Document (the kPointer default), so
// it also answers EvalStrategy::kBaseline; "2025" streams straight into the
// index and does not. Both answer every other strategy identically.
//
// Single-document usage keeps the classic one-liners; the string overload
// of Run caches compilations in a small LRU, so repeated query strings stop
// recompiling:
//
//   XPWQO_ASSIGN_OR_RETURN(Engine engine, Engine::FromXmlFile("doc.xml"));
//   XPWQO_ASSIGN_OR_RETURN(QueryResult r, engine.Run("//listitem//keyword"));
//
// Thread-safety: a loaded Engine is const-thread-safe — concurrent Run()
// and cursors are fine, including through the string overload (the query
// cache is internally locked), with one caveat: compiling a *new* query
// interns labels into the shared Alphabet, which must not race with other
// compilations or document loads on the same alphabet. Prepare the query
// set up front (or warm the cache single-threaded) and the serving phase is
// lock-free reads.
#ifndef XPWQO_CORE_ENGINE_H_
#define XPWQO_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/cursor.h"
#include "core/prepared_query.h"
#include "core/query.h"
#include "core/query_cache.h"
#include "index/text_store.h"
#include "index/tree_index.h"
#include "tree/document.h"
#include "util/status.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/ast.h"

namespace xpwqo {

/// Whether a load keeps the parsed Document next to the index. The index
/// is the same either way, and so is every answer of every strategy except
/// EvalStrategy::kBaseline, the only one that reads the Document.
enum class TreeBackend {
  /// Parse into a Document, build the index from it, and keep it: the
  /// engine also answers kBaseline (the oracle the parity tests use).
  kPointer,
  /// Stream parser events straight into the SuccinctBuilder,
  /// LabelPostingsBuilder and TextStoreBuilder; no Document is ever
  /// materialized, so peak load memory stays near the steady-state
  /// footprint. This is what serving loads use.
  kSuccinct,
};

/// How to load XML into an engine.
struct LoadOptions {
  /// The default keeps the Document, so default engines answer kBaseline.
  TreeBackend backend = TreeBackend::kPointer;
  XmlParseOptions parse;
  /// Intern labels through this alphabet instead of a fresh private one —
  /// the Collection path: every document of a collection shares one
  /// alphabet so one PreparedQuery binds to all of them.
  std::shared_ptr<Alphabet> alphabet;
};

/// Memory accounting of the loaded index structures, reported by the
/// benches' JSON output. All byte counts are the frozen in-memory sizes.
struct IndexMemoryReport {
  size_t label_index_bytes = 0;         // compressed posting lists
  size_t label_index_vector_bytes = 0;  // same lists as plain vectors
  size_t dense_labels = 0;              // bitmap-backed labels
  size_t sparse_labels = 0;             // delta-block-backed labels
  size_t tree_bytes = 0;  // succinct BP + directories + label array
  size_t text_store_bytes = 0;  // content layer (bitmap + offsets + heap)

  double compression_ratio() const {
    return label_index_bytes > 0
               ? static_cast<double>(label_index_vector_bytes) /
                     static_cast<double>(label_index_bytes)
               : 0.0;
  }
};

/// One document plus its index; immutable after construction, cheap to move.
class Engine {
 public:
  /// Loads the XML through the pipeline `options.backend` selects — the
  /// single entry point that chooses the ingestion pipeline.
  static StatusOr<Engine> FromXmlFile(const std::string& path,
                                      const LoadOptions& options = {});
  static StatusOr<Engine> FromXmlString(std::string_view xml,
                                        const LoadOptions& options = {});
  /// Indexes an already-materialized Document and keeps it, like a
  /// kPointer load.
  static Engine FromDocument(Document doc);

  /// Assembles a Document-less engine from persistent-image parts: a
  /// SuccinctTree and LabelIndex whose raw bytes live inside `backing`
  /// (the mapped image), which the engine keeps alive for its lifetime.
  /// The persist loader (persist/index_image.h) validates everything
  /// before calling this.
  /// `text` is the content layer from a v2 image's text section, or null
  /// for v1 images (structural-only; text-dependent queries then fail with
  /// kFailedPrecondition).
  static Engine FromImageParts(std::shared_ptr<Alphabet> alphabet,
                               std::unique_ptr<SuccinctTree> tree,
                               LabelIndex labels,
                               std::unique_ptr<TextStore> text,
                               std::shared_ptr<const void> backing);

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();

  /// Parses and compiles an XPath expression of the supported fragment
  /// against this engine's alphabet (equivalent to PreparedQuery::Prepare).
  StatusOr<PreparedQuery> Compile(std::string_view xpath) const;

  /// Opens a streaming cursor over the query's results. The query must
  /// have been prepared against this engine's alphabet; it and the engine
  /// must outlive the cursor.
  StatusOr<ResultCursor> OpenCursor(const PreparedQuery& query,
                                    const QueryOptions& options = {}) const;

  /// String convenience: compiles through the engine's LRU query cache and
  /// hands the cursor shared ownership of the compilation.
  StatusOr<ResultCursor> OpenCursor(std::string_view xpath,
                                    const QueryOptions& options = {}) const;

  /// Shared-compilation overload: the cursor co-owns `query`, so the
  /// caller may drop its reference (Collection's string overload and the
  /// serving runtime open cursors this way).
  StatusOr<ResultCursor> OpenCursor(std::shared_ptr<const PreparedQuery> query,
                                    const QueryOptions& options = {}) const;

  /// Runs a compiled query to completion (drains an eager cursor — the
  /// classic materialized API).
  StatusOr<QueryResult> Run(const PreparedQuery& query,
                            const QueryOptions& options = {}) const;

  /// Parses, compiles and runs in one call. Compilations are cached in a
  /// small LRU keyed by the query string, so repeated calls stop paying
  /// parse + compile; QueryResult::stats::query_cache_hits reports the
  /// cache's cumulative hits.
  StatusOr<QueryResult> Run(std::string_view xpath,
                            const QueryOptions& options = {}) const;

  /// exists() pushdown: true when the query selects at least one node.
  /// Opens a streaming cursor and stops at the first match — the LIMIT-1
  /// machinery, so an existence check never sweeps the document. `stats`
  /// (optional) receives the cursor statistics (visited-node counts).
  StatusOr<bool> Exists(const PreparedQuery& query,
                        const QueryOptions& options = {},
                        CursorStats* stats = nullptr) const;
  StatusOr<bool> Exists(std::string_view xpath,
                        const QueryOptions& options = {},
                        CursorStats* stats = nullptr) const;

  /// count() without materializing: drains a streaming cursor counting
  /// matches instead of collecting them.
  StatusOr<size_t> Count(const PreparedQuery& query,
                         const QueryOptions& options = {},
                         CursorStats* stats = nullptr) const;
  StatusOr<size_t> Count(std::string_view xpath,
                         const QueryOptions& options = {},
                         CursorStats* stats = nullptr) const;

  /// The parsed Document. Requires has_document(): only kPointer loads and
  /// FromDocument keep one.
  const Document& document() const {
    XPWQO_CHECK(doc_ != nullptr);
    return *doc_;
  }
  bool has_document() const { return doc_ != nullptr; }
  const SuccinctTree& tree() const { return *tree_; }
  const TreeIndex& index() const { return *index_; }
  /// The label alphabet (shared by the index and query compilation).
  const Alphabet& alphabet() const { return *alphabet_; }
  const std::shared_ptr<Alphabet>& alphabet_ptr() const { return alphabet_; }
  int32_t num_nodes() const { return tree_->num_nodes(); }
  /// The content layer, or null for engines opened from a v1
  /// (structural-only) image.
  const TextStore* text_store() const { return text_.get(); }
  /// Root-to-node label path such as "/site/regions/item" (diagnostics; the
  /// examples print match locations with it).
  std::string PathTo(NodeId n) const;
  /// Serializes the subtree rooted at `n` (kNullNode = whole document)
  /// back to XML text from the succinct tree plus the TextStore.
  /// kFailedPrecondition on v1-image engines, which store no text to
  /// serialize.
  StatusOr<std::string> SerializeSubtree(
      NodeId n = kNullNode, const XmlSerializeOptions& options = {}) const;
  /// Memory accounting of the tree, label index and content layer.
  IndexMemoryReport IndexMemory() const;

  /// The string-compilation LRU this engine compiles through. Private by
  /// default; Collection replaces it with one cache shared across all its
  /// engines so a query string compiles once per collection, not per shard.
  const std::shared_ptr<QueryCache>& query_cache() const { return cache_; }
  void set_query_cache(std::shared_ptr<QueryCache> cache) {
    XPWQO_CHECK(cache != nullptr);
    cache_ = std::move(cache);
  }

  /// Integrity verification hook: re-validates the engine's backing bytes
  /// (CRC sweep over the mapped index image for image-opened engines).
  /// Returns OK for engines without persistent backing — there is nothing
  /// to scrub. kCorruption means the backing storage changed under the
  /// mapping; the engine's answers are untrusted.
  Status Verify() const {
    return verifier_ ? verifier_() : Status::OK();
  }
  /// Installs the verifier (the persist image-open path does; core itself
  /// never depends on the persist layer).
  void set_verifier(std::function<Status()> verifier) {
    verifier_ = std::move(verifier);
  }

 private:
  Engine();
  /// The kSuccinct load path of the FromXml* entry points.
  static StatusOr<Engine> LoadSuccinct(
      size_t input_bytes, std::shared_ptr<Alphabet> alphabet,
      const std::function<Status(Alphabet*, TreeEventSink*)>& parse);
  /// Cache-through compilation of a query string.
  StatusOr<std::shared_ptr<const PreparedQuery>> PrepareCached(
      std::string_view xpath) const;
  internal::CursorContext Context() const;

  std::shared_ptr<Alphabet> alphabet_;
  /// Keeps the mapped index image alive for image-opened engines; the
  /// structures below read straight out of it, so it is declared first
  /// (destroyed last). Null for built engines.
  std::shared_ptr<const void> backing_;
  std::unique_ptr<SuccinctTree> tree_;
  std::unique_ptr<TreeIndex> index_;  // over tree_
  std::unique_ptr<TextStore> text_;   // null on v1 images
  std::unique_ptr<Document> doc_;     // kBaseline's input; kPointer only
  /// LRU of string-compiled queries (internally locked; see the class
  /// comment for the new-query interning caveat). Shared with the owning
  /// Collection when there is one.
  std::shared_ptr<QueryCache> cache_;
  /// Backing-bytes re-validation, installed by the persist open path.
  std::function<Status()> verifier_;
};

}  // namespace xpwqo

#endif  // XPWQO_CORE_ENGINE_H_
