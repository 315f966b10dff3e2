#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace e2ebench {

namespace {

// Reads a JSON string starting at the opening quote at `*pos`; the
// benchmark's query strings and shard names carry no escapes that matter
// for comparison, so escapes are copied verbatim.
bool ReadString(std::string_view s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  size_t i = *pos + 1;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) out->push_back(s[i++]);
    out->push_back(s[i++]);
  }
  if (i >= s.size()) return false;
  *pos = i + 1;
  return true;
}

bool ReadInt(std::string_view s, size_t* pos, int64_t* out) {
  size_t i = *pos;
  const bool neg = i < s.size() && s[i] == '-';
  if (neg) ++i;
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
  int64_t v = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') v = v * 10 + (s[i++] - '0');
  *out = neg ? -v : v;
  *pos = i;
  return true;
}

// Moves `*pos` past the next occurrence of `key` ("\"name\":" etc.).
bool Seek(std::string_view s, size_t* pos, std::string_view key) {
  const size_t at = s.find(key, *pos);
  if (at == std::string_view::npos) return false;
  *pos = at + key.size();
  return true;
}

}  // namespace

bool ParseQueryBody(std::string_view body, QueryBody* out) {
  out->rows.clear();
  out->latency_us = -1;
  size_t pos = 0;
  if (!Seek(body, &pos, "\"documents\":[")) return false;
  const size_t docs_end = body.find("],\"status\":", pos);
  if (docs_end == std::string_view::npos) return false;
  while (pos < docs_end) {
    size_t at = pos;
    if (!Seek(body, &at, "{\"name\":") || at > docs_end) break;
    pos = at;
    Row row;
    if (!ReadString(body, &pos, &row.name)) return false;
    if (!Seek(body, &pos, "\"status\":") ||
        !ReadString(body, &pos, &row.status)) {
      return false;
    }
    if (!Seek(body, &pos, "\"nodes\":[")) return false;
    while (pos < body.size() && body[pos] != ']') {
      int64_t id = 0;
      if (!ReadInt(body, &pos, &id)) return false;
      row.nodes.push_back(id);
      if (pos < body.size() && body[pos] == ',') ++pos;
    }
    if (!Seek(body, &pos, "\"visited\":") ||
        !ReadInt(body, &pos, &row.visited)) {
      return false;
    }
    out->rows.push_back(std::move(row));
  }
  pos = docs_end;
  return Seek(body, &pos, "\"latency_us\":") &&
         ReadInt(body, &pos, &out->latency_us);
}

bool Flatten(const std::vector<Row>& rows, Answer* out) {
  out->clear();
  for (const Row& row : rows) {
    if (row.status != "OK" || row.name.compare(0, 5, "shard") != 0) {
      return false;
    }
    const int shard = std::atoi(row.name.c_str() + 5);
    if (shard < 0 || shard >= kShards) return false;
    for (const int64_t id : row.nodes) out->emplace_back(shard, id);
  }
  return true;
}

Oracle::Oracle(const std::vector<std::string>& shard_xml) {
  for (size_t i = 0; i < shard_xml.size(); ++i) {
    xpwqo::LoadOptions options;
    options.backend = xpwqo::TreeBackend::kPointer;
    const xpwqo::Status added = collection_.AddXmlString(
        "shard" + std::to_string(i), shard_xml[i], options);
    if (!added.ok()) throw std::runtime_error("oracle: " + added.ToString());
  }
}

void Oracle::Prepare(const std::vector<Request>& requests) {
  std::vector<std::string> fresh;
  std::vector<xpwqo::PreparedQuery> prepared;
  for (const Request& r : requests) {
    if (answers_.count(r.xpath) > 0) continue;
    auto query = collection_.Prepare(r.xpath);
    if (!query.ok()) {
      throw std::runtime_error("oracle: " + r.xpath + ": " +
                               query.status().ToString());
    }
    answers_[r.xpath];
    fresh.push_back(r.xpath);
    prepared.push_back(std::move(query).value());
  }
  // One thread: on small hosts parallel baseline runs are no faster.
  xpwqo::QueryOptions options;
  options.strategy = xpwqo::EvalStrategy::kBaseline;
  for (size_t q = 0; q < fresh.size(); ++q) {
    Answer& answer = answers_[fresh[q]];
    for (size_t s = 0; s < collection_.size(); ++s) {
      const xpwqo::Engine* engine = collection_.Find(collection_.names()[s]);
      auto result = engine->Run(prepared[q], options);
      if (!result.ok()) {
        throw std::runtime_error("oracle: " + fresh[q] + ": " +
                                 result.status().ToString());
      }
      for (const xpwqo::NodeId id : result->nodes) {
        answer.emplace_back(static_cast<int>(s), id);
      }
    }
  }
}

bool Oracle::Matches(const Request& request, const Answer& got) const {
  const auto it = answers_.find(request.xpath);
  if (it == answers_.end()) {
    throw std::logic_error("oracle: no answer prepared for " + request.xpath);
  }
  const Answer& want = it->second;
  size_t n = want.size();
  if (request.limit >= 0) n = std::min(n, static_cast<size_t>(request.limit));
  if (got.size() == n && std::equal(got.begin(), got.end(), want.begin())) {
    return true;
  }
  if (reported_++ < 5) {
    std::fprintf(stderr, "e2ebench: wrong answer to %s (limit %lld): %zu nodes, want %zu\n",
                 request.xpath.c_str(), static_cast<long long>(request.limit),
                 got.size(), n);
  }
  return false;
}

}  // namespace e2ebench
