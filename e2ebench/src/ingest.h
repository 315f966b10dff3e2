// The ingest child's entry point (see ingest.cc).
#ifndef E2EBENCH_INGEST_H_
#define E2EBENCH_INGEST_H_

#include <string>

namespace e2ebench {

struct IngestArgs {
  std::string xml_dir;     // holds shard{i}.xml
  std::string out_dir;     // save mode: the collection is saved here
  std::string spans_path;  // traced runs write their spans here
  double seconds = 1;      // passes mode: how long to repeat LoadAll passes
  bool trace = false;
};

/// Runs one ingest child (passes mode, or save mode when out_dir is set)
/// and prints its results as "key value" lines.
int IngestMain(const IngestArgs& args);

}  // namespace e2ebench

#endif  // E2EBENCH_INGEST_H_
