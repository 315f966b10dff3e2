// Quickstart: the serving-oriented API in one file — a Collection of
// documents behind one shared alphabet, a PreparedQuery compiled once, and
// streaming ResultCursors with LIMIT-k early termination.
//
//   $ ./examples/quickstart
//   $ ./examples/quickstart --save-index DIR   # also persist the library
//   $ ./examples/quickstart --index DIR        # reopen it: no XML parsing
//
// The persistence pair demonstrates the crash-proof index format: saving
// writes one checksummed image per document plus a manifest, reopening
// maps images lazily on first query.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "core/collection.h"
#include "persist/index_image.h"

int main(int argc, char** argv) {
  std::string save_dir;
  std::string index_dir;
  if (argc == 3 && !std::strcmp(argv[1], "--save-index")) {
    save_dir = argv[2];
  } else if (argc == 3 && !std::strcmp(argv[1], "--index")) {
    index_dir = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr,
                 "usage: quickstart [--save-index DIR | --index DIR]\n");
    return 2;
  }
  const char* databases_xml = R"(
    <library>
      <shelf topic="databases">
        <book><title>Query Processing</title><year>2010</year></book>
        <book><title>Tree Automata</title></book>
      </shelf>
      <shelf topic="systems">
        <book><title>Succinct Structures</title><year>2009</year></book>
      </shelf>
    </library>)";
  const char* archive_xml = R"(
    <library>
      <shelf topic="archive">
        <book><title>Staircase Join</title><year>2003</year></book>
        <book><title>Holistic Twig Joins</title><year>2002</year></book>
      </shelf>
    </library>)";

  // One collection, one alphabet, many documents, each indexed the same
  // way (~2 bits/node topology plus label postings and values). The
  // archive streams straight into its index; "current" also keeps its
  // parsed Document, which only the node-set baseline strategy reads. With
  // --index the whole library reopens from saved images instead: each
  // document mmaps on its first query.
  xpwqo::Collection library;
  if (!index_dir.empty()) {
    auto reopened = xpwqo::OpenCollection(index_dir);
    if (!reopened.ok()) {
      std::fprintf(stderr, "open error: %s\n",
                   reopened.status().ToString().c_str());
      return 1;
    }
    library = std::move(*reopened);
    std::printf("reopened %zu document(s) from %s\n", library.size(),
                index_dir.c_str());
  } else {
    xpwqo::LoadOptions succinct;
    succinct.backend = xpwqo::TreeBackend::kSuccinct;
    auto s1 = library.AddXmlString("current", databases_xml);
    auto s2 = library.AddXmlString("archive", archive_xml, succinct);
    if (!s1.ok() || !s2.ok()) {
      std::fprintf(stderr, "load error: %s\n",
                   (s1.ok() ? s2 : s1).ToString().c_str());
      return 1;
    }
  }
  if (!save_dir.empty()) {
    const xpwqo::Status saved = xpwqo::SaveCollection(library, save_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "save error: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved the library to %s (reopen with --index)\n",
                save_dir.c_str());
  }

  // Compile once, run everywhere: the prepared query binds to every
  // document of the collection (prepared statements, XPath edition).
  auto titles = library.Prepare("//book/title");
  if (!titles.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 titles.status().ToString().c_str());
    return 1;
  }
  auto all = library.RunAll(*titles);
  if (!all.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 all.status().ToString().c_str());
    return 1;
  }
  for (const xpwqo::CollectionResult& row : *all) {
    std::printf("%-8s -> %zu title(s)\n", row.name.c_str(),
                row.result.nodes.size());
  }

  // Cursors pull results one at a time in document order; stopping early
  // stops the evaluation — LIMIT 1 never sweeps the rest of the tree.
  auto first_dated = library.Prepare("//book//year");
  if (!first_dated.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 first_dated.status().ToString().c_str());
    return 1;
  }
  auto cursor = library.OpenCursor("current", *first_dated);
  if (cursor.ok()) {
    xpwqo::NodeId n = cursor->Next();
    const xpwqo::Engine* current = library.Find("current");
    if (n != xpwqo::kNullNode) {
      std::printf("first dated book: %s (visited %lld nodes, streaming=%s)\n",
                  current->PathTo(n).c_str(),
                  static_cast<long long>(
                      cursor->TakeStats().eval.nodes_visited),
                  cursor->streaming() ? "yes" : "no");
    }
  }

  // Value predicates compare text and attribute content, read from the
  // TextStore that version-2 index images persist — so these queries give
  // the same answers before --save-index and after --index.
  auto dated = library.Prepare(
      "//shelf[@topic='databases']/book[year/text()='2010']/title");
  if (!dated.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 dated.status().ToString().c_str());
    return 1;
  }
  auto matches = library.RunAll(*dated);
  if (!matches.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 matches.status().ToString().c_str());
    return 1;
  }
  for (const xpwqo::CollectionResult& row : *matches) {
    for (const xpwqo::NodeId n : row.result.nodes) {
      std::printf("dated 2010 in %-8s -> %s\n", row.name.c_str(),
                  library.Find(row.name)->PathTo(n).c_str());
    }
  }

  // exists() is the LIMIT-1 pushdown: the first candidate that passes the
  // value check ends the evaluation.
  const xpwqo::Engine* archive = library.Find("archive");
  if (archive != nullptr) {
    auto has_join = archive->Exists("//book[contains(title/text(),'Join')]");
    if (has_join.ok()) {
      std::printf("archive has a 'Join' title: %s\n",
                  *has_join ? "true" : "false");
    }
  }

  // The classic single-document API is unchanged underneath — and every
  // evaluation strategy of the paper is one option away. The string
  // overload caches compilations, so re-running a query string skips
  // parse + compile (stats report the cache hits).
  const xpwqo::Engine* engine = library.Find("current");
  xpwqo::QueryOptions naive;
  naive.strategy = xpwqo::EvalStrategy::kNaive;
  auto slow = engine->Run("//book/title", naive);
  auto fast = engine->Run("//book/title");  // optimized: jumping + memo
  if (slow.ok() && fast.ok()) {
    std::printf(
        "naive visited %lld nodes, optimized visited %lld, "
        "query cache hits so far: %lld\n",
        static_cast<long long>(slow->stats.nodes_visited),
        static_cast<long long>(fast->stats.nodes_visited),
        static_cast<long long>(fast->stats.query_cache_hits));
  }
  return 0;
}
