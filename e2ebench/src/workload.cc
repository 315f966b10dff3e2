#include "workload.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "harness.h"
#include "xmark/generator.h"
#include "xmark/workload.h"
#include "xml/serializer.h"

namespace e2ebench {

namespace {

// Rates and capacities measured on a 4-core x86-64 VM at the commit that
// introduced the benchmark; they are constants so that a later commit is
// driven at the same offered load. xmark_mix runs at about a fifth of its
// max_rps, the lowest rate that still gives 1,000 open-loop samples in a
// 40-second run. lookup runs at about a ninth: its short requests queue
// behind each other in the host's slow stretches, and at 100/s its p99
// doubled in one run in five.
const WorkloadSpec kWorkloads[] = {
    {"xmark_mix", 36.0, 180.0},
    {"lookup", 60.0, 540.0},
};

// The generator's word vocabulary (src/xmark/generator.cc), probed by the
// lookup mix's contains() tests.
const char* const kWords[] = {
    "amorous",  "baggage", "cabinet", "dagger",  "eagle",   "fabric",
    "gamboge",  "hackles", "iceberg", "jackal",  "keel",    "labour",
    "madrigal", "nacelle", "oasis",   "pageant", "quarrel", "rampart",
    "sable",    "tackle",  "umpire",  "vagrant", "waffle",  "yarrow",
    "zealot",   "arrears", "borough", "cascade", "dredge",  "embargo"};
constexpr int kNumWords = sizeof(kWords) / sizeof(kWords[0]);

const char* const kContainsForms[] = {
    "//keyword[contains(text(),'%s')]",
    "//person[contains(name/text(),'%s')]",
    "//item[contains(.//keyword/text(),'%s')]",
};
constexpr int kNumContainsForms = 3;

Request PersonLookup(uint64_t id) {
  Request r;
  r.xpath = "//person[@id='person" + std::to_string(id) + "']";
  return r;
}

Request ContainsTest(uint64_t pick) {
  char buf[128];
  std::snprintf(buf, sizeof buf, kContainsForms[pick % kNumContainsForms],
                kWords[(pick / kNumContainsForms) % kNumWords]);
  Request r;
  r.xpath = buf;
  r.limit = 10;
  return r;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string Request::Target() const {
  std::string t = "/query?q=" + UrlEncode(xpath);
  if (limit >= 0) t += "&limit=" + std::to_string(limit);
  return t;
}

std::vector<Request> MakeRequests(const WorkloadSpec& spec, uint64_t seed,
                                  Stream stream, size_t n) {
  Rng rng(DeriveSeed(seed, static_cast<uint64_t>(stream)));
  std::vector<Request> out;
  out.reserve(n);
  const bool mix = std::strcmp(spec.name, "xmark_mix") == 0;
  const auto& figure2 = xpwqo::Figure2Workload();
  while (out.size() < n) {
    std::vector<Request> block;
    if (mix) {
      // Each block of 15 holds Q01-Q15 once.
      for (const xpwqo::WorkloadQuery& q : figure2) {
        Request r;
        r.xpath = q.xpath;
        block.push_back(std::move(r));
      }
    } else {
      // Each block of 3 holds two person lookups and one contains() test.
      block.push_back(PersonLookup(rng.Uniform(kPersonIds)));
      block.push_back(PersonLookup(rng.Uniform(kPersonIds)));
      block.push_back(ContainsTest(rng.Uniform(kNumWords * kNumContainsForms)));
    }
    Shuffle(&block, &rng);
    for (Request& r : block) {
      if (out.size() == n) break;
      out.push_back(std::move(r));
    }
  }
  return out;
}

std::vector<Segment> MakeSegments(const WorkloadSpec& spec, uint64_t seed,
                                  size_t warmup, size_t sampled) {
  const std::vector<Request> warm = MakeRequests(spec, seed, Stream::kWarmup, warmup);
  const std::vector<Request> open = MakeRequests(spec, seed, Stream::kOpen, sampled);
  std::vector<Segment> segments(kRounds);
  for (int k = 0; k < kRounds; ++k) {
    Segment& seg = segments[static_cast<size_t>(k)];
    seg.requests = RoundSlice(warm, k);
    seg.warmup = seg.requests.size();
    const std::vector<Request> measured = RoundSlice(open, k);
    seg.requests.insert(seg.requests.end(), measured.begin(), measured.end());
    seg.due_ns = PoissonSchedule(
        DeriveSeed(seed, kScheduleStream + static_cast<uint64_t>(k)),
        spec.rate_per_s, seg.requests.size());
  }
  return segments;
}

Request SetupProbe() {
  Request r;
  r.xpath = xpwqo::Figure2Workload().front().xpath;
  return r;
}

Request ColdProbe(const WorkloadSpec& spec) {
  Request r;
  r.xpath = std::strcmp(spec.name, "lookup") == 0
                ? "//person[@id='person0']"
                : xpwqo::FindWorkloadQuery("Q05")->xpath;
  return r;
}

uint64_t ShardSeed(uint64_t seed, int i) {
  return DeriveSeed(seed, 100 + static_cast<uint64_t>(i));
}

std::vector<std::string> WriteShards(uint64_t seed, const std::string& dir) {
  std::vector<std::string> xml;
  for (int i = 0; i < kShards; ++i) {
    xpwqo::XMarkOptions options;
    options.scale = kScale;
    options.seed = ShardSeed(seed, i);
    xml.push_back(xpwqo::SerializeXml(xpwqo::GenerateXMark(options)));
    const std::string path = dir + "/shard" + std::to_string(i) + ".xml";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(xml.back().data(), 1, xml.back().size(), f) !=
            xml.back().size() ||
        std::fclose(f) != 0) {
      throw std::runtime_error("cannot write " + path);
    }
  }
  return xml;
}

}  // namespace e2ebench
