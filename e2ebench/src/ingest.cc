// The ingest child: the write side of the index, run in processes of its
// own so that their peak RSS is the ingest path's alone. Two modes:
//
//   passes  repeats single-threaded Collection::LoadAll passes over the
//           shard files, each into a fresh Collection, for --seconds; a run
//           spreads several such slices over its whole length. Traced runs
//           also time xml::ScanStructural and xml::ParseXmlEvents over the
//           same bytes in every pass.
//   save    (--out DIR) loads once, saves the collection, opens the saved
//           copy with a first touch of every shard, and checks that it
//           answers Figure 2 exactly as the in-memory collection does.
//
// Results go to stdout as "key value" lines; per-pass keys repeat.
#include "ingest.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "persist/index_image.h"
#include "proc.h"
#include "trace.h"
#include "workload.h"
#include "xmark/workload.h"
#include "xml/parser.h"
#include "xml/structural_scan.h"

namespace e2ebench {

namespace {

// Counts parser events; the benchmark's stand-in for a tree builder.
class CountingSink final : public xpwqo::TreeEventSink {
 public:
  void BeginElement(xpwqo::LabelId) override { ++events; }
  void Attribute(xpwqo::LabelId, std::string_view) override { ++events; }
  void Text(xpwqo::LabelId, std::string_view) override { ++events; }
  void EndElement() override { ++events; }
  int64_t events = 0;
};

std::vector<int64_t> Drain(xpwqo::ResultCursor* cursor) {
  std::vector<int64_t> ids;
  for (xpwqo::NodeId n = cursor->Next(); n != xpwqo::kNullNode;
       n = cursor->Next()) {
    ids.push_back(n);
  }
  return ids;
}

std::vector<xpwqo::Collection::BulkLoadSpec> Specs(const std::string& dir) {
  std::vector<xpwqo::Collection::BulkLoadSpec> specs;
  for (int i = 0; i < kShards; ++i) {
    xpwqo::Collection::BulkLoadSpec spec;
    spec.name = "shard" + std::to_string(i);
    spec.path = dir + "/shard" + std::to_string(i) + ".xml";
    spec.options.backend = xpwqo::TreeBackend::kSuccinct;  // what xpathd serves
    specs.push_back(std::move(spec));
  }
  return specs;
}

void Print(const char* key, double value) { std::printf("%s %.6f\n", key, value); }

int Passes(const IngestArgs& args, Tracer* tracer) {
  const auto specs = Specs(args.xml_dir);
  std::vector<std::string> xml;
  if (args.trace) {
    for (const auto& spec : specs) {
      std::ifstream in(spec.path, std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      xml.push_back(ss.str());
    }
  }
  int64_t failures = 0;
  const int64_t until = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int pass = 0; pass < 3 || NowNs() < until; ++pass) {
    if (args.trace) {
      int32_t span = tracer->Begin("xml.scan");
      xpwqo::StructuralTape tape;
      for (const std::string& x : xml) {
        tape.Clear();
        xpwqo::ScanStructural(x.data(), x.size(), 0, &tape);
        tracer->Count(span, "entries", static_cast<int64_t>(tape.TotalEntries()));
      }
      tracer->End(span);
      Print("scan_ms", tracer->at(span).duration_ns() / 1e6);

      span = tracer->Begin("xml.parse");
      for (const std::string& x : xml) {
        xpwqo::Alphabet alphabet;
        CountingSink sink;
        if (!xpwqo::ParseXmlEvents(x, xpwqo::XmlParseOptions{}, &alphabet, &sink).ok()) {
          ++failures;
        }
        tracer->Count(span, "events", sink.events);
      }
      tracer->End(span);
      Print("parse_ms", tracer->at(span).duration_ns() / 1e6);
    }
    xpwqo::Collection collection;
    const int32_t span = tracer->Begin("core.load_all");
    const xpwqo::Collection::BulkLoadReport report = collection.LoadAll(specs, 1);
    tracer->End(span);
    Print("load_ms", tracer->at(span).duration_ns() / 1e6);
    failures += static_cast<int64_t>(report.failed);
  }
  Print("load_failures", static_cast<double>(failures));
  return 0;
}

int Save(const IngestArgs& args, Tracer* tracer) {
  uint64_t xml_bytes = 0;
  for (const auto& spec : Specs(args.xml_dir)) {
    xml_bytes += std::filesystem::file_size(spec.path);
  }
  xpwqo::Collection loaded;
  const xpwqo::Collection::BulkLoadReport report =
      loaded.LoadAll(Specs(args.xml_dir), 1);
  if (report.failed > 0) {
    std::fprintf(stderr, "ingest: %s: %s\n", report.rows.front().name.c_str(),
                 report.rows.front().status.ToString().c_str());
    return 1;
  }
  int32_t span = tracer->Begin("persist.save");
  const xpwqo::Status saved = xpwqo::SaveCollection(loaded, args.out_dir);
  tracer->End(span);
  if (!saved.ok()) {
    std::fprintf(stderr, "ingest: save: %s\n", saved.ToString().c_str());
    return 1;
  }
  Print("save_ms", tracer->at(span).duration_ns() / 1e6);
  uint64_t image_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(args.out_dir)) {
    if (entry.is_regular_file()) image_bytes += entry.file_size();
  }

  span = tracer->Begin("persist.open");
  auto opened = xpwqo::OpenCollection(args.out_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "ingest: open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  int64_t failures = 0;
  for (const std::string& name : opened->names()) {
    const int32_t touch = tracer->Begin("persist.first_touch", -1, span);
    if (!opened->Get(name).ok()) ++failures;
    tracer->End(touch);
  }
  tracer->End(span);
  Print("open_ms", tracer->at(span).duration_ns() / 1e6);

  // The reopened collection must answer Figure 2 as the in-memory one does.
  int64_t checked = 0;
  int64_t mismatches = 0;
  for (const xpwqo::WorkloadQuery& q : xpwqo::Figure2Workload()) {
    for (const std::string& name : loaded.names()) {
      ++checked;
      auto a = loaded.OpenCursor(name, q.xpath);
      auto b = opened->OpenCursor(name, q.xpath);
      if (!a.ok() || !b.ok() || Drain(&*a) != Drain(&*b)) ++mismatches;
    }
  }

  int64_t nodes = 0;
  uint64_t tree_bytes = 0, label_bytes = 0, text_bytes = 0;
  for (const std::string& name : loaded.names()) {
    const xpwqo::Engine* engine = loaded.Find(name);
    const xpwqo::IndexMemoryReport memory = engine->IndexMemory();
    nodes += engine->num_nodes();
    tree_bytes += memory.tree_bytes;
    label_bytes += memory.label_index_bytes;
    text_bytes += memory.text_store_bytes;
  }
  Print("xml_bytes", static_cast<double>(xml_bytes));
  Print("image_bytes", static_cast<double>(image_bytes));
  Print("load_failures", static_cast<double>(failures));
  Print("reopen_checked", static_cast<double>(checked));
  Print("reopen_mismatches", static_cast<double>(mismatches));
  Print("nodes", static_cast<double>(nodes));
  Print("tree_bytes", static_cast<double>(tree_bytes));
  Print("label_bytes", static_cast<double>(label_bytes));
  Print("text_bytes", static_cast<double>(text_bytes));
  // The ingest RSS metric: this child runs the whole write path once.
  Print("peak_rss_kb", static_cast<double>(PeakRssKb(getpid())));
  return 0;
}

}  // namespace

int IngestMain(const IngestArgs& args) {
  Tracer tracer;
  const int code = args.out_dir.empty() ? Passes(args, &tracer) : Save(args, &tracer);
  if (!args.spans_path.empty() && !tracer.WriteJsonLines(args.spans_path)) {
    std::fprintf(stderr, "ingest: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }
  return code;
}

}  // namespace e2ebench
