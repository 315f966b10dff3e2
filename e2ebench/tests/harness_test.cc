// Tests of the benchmark's own generator: schedule purity, open-loop
// charging behind a stall, response framing, and the percentile rule.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "harness.h"
#include "workload.h"

namespace e2ebench {
namespace {

TEST(ScheduleTest, IsAPureFunctionOfTheSeed) {
  const std::vector<int64_t> a = PoissonSchedule(7, 36.0, 2000);
  EXPECT_EQ(a, PoissonSchedule(7, 36.0, 2000));
  EXPECT_NE(a, PoissonSchedule(8, 36.0, 2000));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Mean gap of a rate-36 Poisson process is 1/36 s; a tenth of its gaps
  // are shorter than ln(10/9)/36 s.
  const double mean_gap_s = a.back() / 1e9 / static_cast<double>(a.size());
  EXPECT_NEAR(mean_gap_s, 1.0 / 36.0, 0.02 / 36.0);
  int short_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    short_gaps += (a[i] - a[i - 1]) / 1e9 < std::log(10.0 / 9.0) / 36.0;
  }
  EXPECT_NEAR(short_gaps, 200, 2);

  for (const char* name : {"xmark_mix", "lookup"}) {
    const WorkloadSpec* spec = FindWorkload(name);
    ASSERT_NE(spec, nullptr);
    const auto first = MakeRequests(*spec, 7, Stream::kOpen, 300);
    const auto again = MakeRequests(*spec, 7, Stream::kOpen, 300);
    const auto other = MakeRequests(*spec, 8, Stream::kOpen, 300);
    ASSERT_EQ(first.size(), 300u);
    bool same = true, differs = false;
    for (size_t i = 0; i < first.size(); ++i) {
      same = same && first[i].Target() == again[i].Target();
      differs = differs || first[i].Target() != other[i].Target();
    }
    EXPECT_TRUE(same) << name;
    EXPECT_TRUE(differs) << name;

    const auto segments = MakeSegments(*spec, 7, 90, 1080);
    const auto replay = MakeSegments(*spec, 7, 90, 1080);
    ASSERT_EQ(segments.size(), static_cast<size_t>(kRounds));
    size_t warm = 0, sampled = 0;
    for (size_t k = 0; k < segments.size(); ++k) {
      EXPECT_EQ(segments[k].due_ns, replay[k].due_ns);
      ASSERT_EQ(segments[k].requests.size(), segments[k].due_ns.size());
      for (size_t i = 0; i < segments[k].requests.size(); ++i) {
        EXPECT_EQ(segments[k].requests[i].Target(), replay[k].requests[i].Target());
      }
      warm += segments[k].warmup;
      sampled += segments[k].requests.size() - segments[k].warmup;
    }
    EXPECT_EQ(warm, 90u);
    EXPECT_EQ(sampled, 1080u);
  }
}

// A one-connection responder that answers each request at once, except
// request `stall_at`, which it holds for `stall`.
class StubServer {
 public:
  StubServer(int stall_at, std::chrono::milliseconds stall) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    listen(listen_fd_, 4);
    socklen_t len = sizeof addr;
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall] {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      std::string in;
      char buf[4096];
      int served = 0;
      for (;;) {
        size_t end;
        while ((end = in.find("\r\n\r\n")) == std::string::npos) {
          const ssize_t n = read(fd, buf, sizeof buf);
          if (n <= 0) {
            close(fd);
            return;
          }
          in.append(buf, static_cast<size_t>(n));
        }
        in.erase(0, end + 4);
        if (served++ == stall_at) std::this_thread::sleep_for(stall);
        const std::string reply =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        if (write(fd, reply.data(), reply.size()) < 0) {
          close(fd);
          return;
        }
      }
    });
  }
  ~StubServer() {
    thread_.join();
    close(listen_fd_);
  }
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(DriveTest, RequestsBehindAStallAreChargedFromTheirScheduledTime) {
  constexpr int kStallAt = 5;
  constexpr int64_t kGapNs = 10'000'000;  // one request every 10 ms
  constexpr int64_t kStallNs = 200'000'000;
  std::vector<std::string> requests;
  std::vector<int64_t> due;
  for (int i = 0; i < 40; ++i) {
    requests.push_back(HttpGet("/query?q=x"));
    due.push_back(i * kGapNs);
  }
  std::vector<Exchange> out;
  {
    StubServer stub(kStallAt, std::chrono::milliseconds(kStallNs / 1'000'000));
    DriveOptions options;
    options.port = stub.port();
    options.connections = 1;
    out = Drive(options, requests, due);
  }
  ASSERT_EQ(out.size(), requests.size());
  const int64_t stall_end = out[kStallAt].done_ns;
  EXPECT_GE(stall_end - out[kStallAt].sent_ns, kStallNs);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(out[i].status, 200) << i;
    EXPECT_EQ(out[i].body, "ok");
    EXPECT_EQ(out[i].due_ns - out[0].due_ns, due[i]) << i;
  }
  // Every request due during the stall waited for it, and its latency
  // counts that wait from its own scheduled time.
  int behind = 0;
  for (int i = kStallAt + 1; i < 40; ++i) {
    if (out[i].due_ns >= stall_end) break;
    ++behind;
    EXPECT_GE(out[i].sent_ns, stall_end) << i;
    EXPECT_GE(out[i].ready_ns, stall_end) << i;  // the wait was for the connection
    EXPECT_GE(out[i].sent_ns, out[i].ready_ns) << i;
    EXPECT_GE(out[i].done_ns - out[i].due_ns, stall_end - out[i].due_ns) << i;
  }
  EXPECT_GE(behind, 15);
  EXPECT_GE(out[kStallAt + 1].done_ns - out[kStallAt + 1].due_ns,
            kStallNs - 2 * kGapNs);
}

TEST(DriveTest, ReconnectsWhenTheServerClosesAfterAnAnswer) {
  // Answers one request per connection with "Connection: close".
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(listen(listen_fd, 8), 0);
  socklen_t len = sizeof addr;
  getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  constexpr int kRequests = 5;
  std::thread server([listen_fd] {
    for (int i = 0; i < kRequests; ++i) {
      const int fd = accept(listen_fd, nullptr, nullptr);
      std::string in;
      char buf[4096];
      while (in.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = read(fd, buf, sizeof buf);
        if (n <= 0) break;
        in.append(buf, static_cast<size_t>(n));
      }
      const std::string reply =
          "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye";
      if (write(fd, reply.data(), reply.size()) < 0) break;
      close(fd);
    }
  });
  DriveOptions options;
  options.port = ntohs(addr.sin_port);
  options.closed_loop = true;
  const std::vector<Exchange> out = Drive(
      options, std::vector<std::string>(kRequests, HttpGet("/health")), {});
  server.join();
  close(listen_fd);
  for (const Exchange& ex : out) {
    EXPECT_EQ(ex.status, 200);
    EXPECT_EQ(ex.body, "bye");
  }
}

TEST(ResponseReaderTest, ContentLengthFramingStopsAtTheBody) {
  const std::string first =
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\n"
      "Retry-After: 1\r\n\r\nbusy!";
  const std::string next = "HTTP/1.1 200 OK\r\n";
  ResponseReader reader;
  EXPECT_EQ(reader.Feed(first + next), first.size());
  ASSERT_TRUE(reader.done());
  EXPECT_EQ(reader.status(), 503);
  EXPECT_EQ(reader.body(), "busy!");
  EXPECT_TRUE(reader.keep_alive());
  EXPECT_EQ(reader.TakeBody(), "busy!");
  EXPECT_FALSE(reader.done());

  // HTTP/1.0 framing with Content-Length, one byte at a time.
  const std::string old =
      "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
      "Content-Length: 11\r\n\r\n{\"a\":[1,2]}";
  for (const char c : old) ASSERT_EQ(reader.Feed(std::string_view(&c, 1)), 1u);
  ASSERT_TRUE(reader.done());
  EXPECT_EQ(reader.body(), "{\"a\":[1,2]}");
  EXPECT_FALSE(reader.keep_alive());
}

TEST(ResponseReaderTest, ChunkedFramingIsDeframed) {
  const std::string response =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
      "Connection: keep-alive\r\n\r\n"
      "5\r\nhello\r\n1a;ext=1\r\n, abcdefghijklmnopqrstuvwx\r\n0\r\n\r\n";
  // Every split point must give the same result.
  for (size_t split = 0; split <= response.size(); ++split) {
    ResponseReader reader;
    const size_t a = reader.Feed(std::string_view(response).substr(0, split));
    const size_t b = reader.Feed(std::string_view(response).substr(split));
    EXPECT_EQ(a + b, response.size()) << split;
    ASSERT_TRUE(reader.done()) << split;
    EXPECT_EQ(reader.status(), 200);
    EXPECT_EQ(reader.body(), "hello, abcdefghijklmnopqrstuvwx");
  }
  ResponseReader bad;
  bad.Feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_TRUE(bad.failed());
  ResponseReader unframed;
  unframed.Feed("HTTP/1.1 200 OK\r\nServer: x\r\n\r\n");
  EXPECT_TRUE(unframed.failed());
}

TEST(PercentileTest, EmittedOnlyWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(Percentile(v, 0.99).has_value());
  v.push_back(1000);
  ASSERT_TRUE(Percentile(v, 0.99).has_value());
  EXPECT_EQ(*Percentile(v, 0.99), 990);  // 10 samples lie beyond it

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(Percentile(small, 0.5).has_value());
  small.push_back(2.0);
  ASSERT_TRUE(Percentile(small, 0.5).has_value());
  EXPECT_EQ(*Percentile(small, 0.5), 1.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

}  // namespace
}  // namespace e2ebench
