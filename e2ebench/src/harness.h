// The load-generation core of the end-to-end benchmark: the benchmark's own
// PRNG, the seeded arrival schedule, the percentile rule, an incremental
// HTTP/1.1 response reader and the single-threaded socket driver. None of it
// depends on the program under test, so parent and change commits are
// driven by byte-identical schedules and clients.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// SplitMix64. Owned by the benchmark so that schedules and request lists
/// never change when the program's own generators change.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// An independent seed for stream `stream` of workload seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Offsets (ns from the phase start) at which `n` requests become due under
/// a Poisson process of `rate_per_s`, with stratified exponential gaps. A
/// pure function of its arguments.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     size_t n);

/// Nearest-rank q-quantile of `values`, or nothing when fewer than ten
/// samples lie beyond it (a p99 needs at least 1,000 samples, a median 20).
std::optional<double> Percentile(std::vector<double> values, double q);

/// Incremental reader of one HTTP/1.1 response, fed bytes as they arrive.
/// Handles Content-Length and chunked framing; anything else is an error.
class ResponseReader {
 public:
  /// Consumes a prefix of `data` and returns its length. Bytes past the end
  /// of the response are left unconsumed (they belong to the next one).
  size_t Feed(std::string_view data);
  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kError; }
  int status() const { return status_; }
  /// The de-framed body.
  const std::string& body() const { return body_; }
  /// False when the server announced it will close the connection.
  bool keep_alive() const { return keep_alive_; }
  /// Moves the body out; the reader is then ready for the next response.
  std::string TakeBody();
  void Reset();

 private:
  enum class State {
    kHead,
    kBody,
    kChunkSize,
    kChunkData,
    kChunkEnd,
    kTrailer,
    kDone,
    kError
  };
  bool ParseHead();
  bool TakeLine(std::string_view data, size_t* pos, std::string* line);

  State state_ = State::kHead;
  std::string head_;
  std::string line_;
  std::string body_;
  size_t remaining_ = 0;
  int status_ = 0;
  bool keep_alive_ = true;
};

/// One request's fate, in steady-clock nanoseconds.
struct Exchange {
  int64_t due_ns = 0;         // when it should have been sent
  int64_t ready_ns = 0;       // due and a connection free: sendable
  int64_t sent_ns = 0;        // when it was written
  int64_t first_byte_ns = 0;  // first response byte read
  int64_t done_ns = 0;        // last response byte read
  int status = 0;             // HTTP status; 0 on a transport failure
  std::string body;
};

struct DriveOptions {
  uint16_t port = 0;
  int connections = 1;
  /// Open loop: request i is due at start + due_ns[i] whatever happened to
  /// earlier requests, and its latency counts from then. Closed loop: each
  /// connection sends its next request when the previous answer completes,
  /// and latency counts from the send.
  bool closed_loop = false;
};

/// Steady-clock now in ns (CLOCK_MONOTONIC).
int64_t NowNs();

/// Sends every request (complete HTTP request bytes) in order from one
/// thread over `options.connections` persistent connections to
/// 127.0.0.1:port. `due_ns` is ignored in closed loop. Requests wait in the
/// generator only while every connection is busy.
std::vector<Exchange> Drive(const DriveOptions& options,
                            const std::vector<std::string>& requests,
                            const std::vector<int64_t>& due_ns);

/// "GET target HTTP/1.1" request bytes as the driver sends them.
std::string HttpGet(std::string_view target);

/// Percent-encodes a query-string value.
std::string UrlEncode(std::string_view s);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
