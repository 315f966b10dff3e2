#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <time.h>

namespace e2ebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t bound) { return Next() % bound; }

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull);
  return rng.Next();
}

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     size_t n) {
  // Exponential gaps drawn by stratified sampling (one uniform draw in each
  // of n equal strata of [0, 1)), in seeded random order: every schedule
  // of n requests has nearly the same gap distribution, and the seed
  // decides the order, so runs differ less by luck of the draw.
  Rng rng(seed);
  std::vector<double> gaps(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.Unit()) / static_cast<double>(n);
    gaps[i] = -std::log(1.0 - u) / rate_per_s;
  }
  for (size_t i = n; i > 1; --i) std::swap(gaps[i - 1], gaps[rng.Uniform(i)]);
  std::vector<int64_t> due;
  due.reserve(n);
  double t = 0;
  for (const double gap : gaps) {
    t += gap;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

std::optional<double> Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// ------------------------------------------------------------- reader

bool ResponseReader::TakeLine(std::string_view data, size_t* pos,
                              std::string* line) {
  while (*pos < data.size()) {
    const char c = data[(*pos)++];
    line->push_back(c);
    if (line->size() > 4096) {
      state_ = State::kError;
      return false;
    }
    if (c == '\n') return true;
  }
  return false;
}

size_t ResponseReader::Feed(std::string_view data) {
  size_t pos = 0;
  while (pos < data.size() && state_ != State::kDone &&
         state_ != State::kError) {
    switch (state_) {
      case State::kHead: {
        const size_t before = head_.size();
        head_.append(data.substr(pos));
        const size_t end = head_.find("\r\n\r\n");
        if (end == std::string::npos) {
          pos = data.size();
          if (head_.size() > 65536) state_ = State::kError;
          break;
        }
        pos += end + 4 - before;
        head_.resize(end + 4);
        if (!ParseHead()) state_ = State::kError;
        break;
      }
      case State::kBody: {
        const size_t take = std::min(remaining_, data.size() - pos);
        body_.append(data.substr(pos, take));
        pos += take;
        remaining_ -= take;
        if (remaining_ == 0) state_ = State::kDone;
        break;
      }
      case State::kChunkSize: {
        if (!TakeLine(data, &pos, &line_)) break;
        char* end = nullptr;
        const unsigned long long size = std::strtoull(line_.c_str(), &end, 16);
        if (end == line_.c_str()) {
          state_ = State::kError;
          break;
        }
        line_.clear();
        remaining_ = static_cast<size_t>(size);
        state_ = size == 0 ? State::kTrailer : State::kChunkData;
        break;
      }
      case State::kChunkData: {
        const size_t take = std::min(remaining_, data.size() - pos);
        body_.append(data.substr(pos, take));
        pos += take;
        remaining_ -= take;
        if (remaining_ == 0) state_ = State::kChunkEnd;
        break;
      }
      case State::kChunkEnd: {
        if (!TakeLine(data, &pos, &line_)) break;
        state_ = line_ == "\r\n" ? State::kChunkSize : State::kError;
        line_.clear();
        break;
      }
      case State::kTrailer: {
        if (!TakeLine(data, &pos, &line_)) break;
        if (line_ == "\r\n") state_ = State::kDone;
        line_.clear();
        break;
      }
      case State::kDone:
      case State::kError:
        break;
    }
  }
  return pos;
}

bool ResponseReader::ParseHead() {
  // Status line: "HTTP/1.x SSS reason".
  if (head_.compare(0, 5, "HTTP/") != 0 || head_.size() < 12) return false;
  const bool http11 = head_.compare(0, 8, "HTTP/1.1") == 0;
  status_ = std::atoi(head_.c_str() + 9);
  if (status_ < 100 || status_ > 599) return false;
  keep_alive_ = http11;
  bool chunked = false;
  bool has_length = false;
  size_t length = 0;
  size_t line_start = head_.find("\r\n") + 2;
  while (line_start < head_.size()) {
    const size_t line_end = head_.find("\r\n", line_start);
    if (line_end == line_start) break;  // the blank line
    const std::string_view line(head_.data() + line_start,
                                line_end - line_start);
    line_start = line_end + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string name(line.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    std::string lower(value);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == "content-length") {
      has_length = true;
      length = static_cast<size_t>(std::strtoull(lower.c_str(), nullptr, 10));
    } else if (name == "transfer-encoding") {
      chunked = lower.find("chunked") != std::string::npos;
    } else if (name == "connection") {
      if (lower == "close") keep_alive_ = false;
      if (lower == "keep-alive") keep_alive_ = true;
    }
  }
  if (chunked) {
    state_ = State::kChunkSize;
  } else if (has_length) {
    remaining_ = length;
    state_ = length == 0 ? State::kDone : State::kBody;
  } else {
    return false;
  }
  return true;
}

std::string ResponseReader::TakeBody() {
  std::string body = std::move(body_);
  Reset();
  return body;
}

void ResponseReader::Reset() {
  state_ = State::kHead;
  head_.clear();
  line_.clear();
  body_.clear();
  remaining_ = 0;
  status_ = 0;
  keep_alive_ = true;
}

// ------------------------------------------------------------- driver

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// A response slower than this fails as a transport error.
constexpr int64_t kResponseTimeoutNs = 10'000'000'000;

struct Conn {
  int fd = -1;
  bool busy = false;
  int64_t free_since = 0;  // when the previous exchange ended
  size_t request = 0;
  bool first_byte = false;
  ResponseReader reader;
};

}  // namespace

std::vector<Exchange> Drive(const DriveOptions& options,
                            const std::vector<std::string>& requests,
                            const std::vector<int64_t>& due_ns) {
  const size_t n = requests.size();
  std::vector<Exchange> out(n);
  if (n == 0) return out;
  if (!options.closed_loop && due_ns.size() != n) {
    throw std::invalid_argument("Drive: one due time per request");
  }
  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  const int tfd = timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = ~0ull;
  epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &tev);

  std::vector<Conn> conns(static_cast<size_t>(std::max(1, options.connections)));
  auto open_conn = [&](size_t c) {
    conns[c].fd = ConnectLoopback(options.port);
    conns[c].busy = false;
    conns[c].free_since = NowNs();
    conns[c].reader.Reset();
    if (conns[c].fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = c;
    epoll_ctl(epfd, EPOLL_CTL_ADD, conns[c].fd, &ev);
  };
  auto close_conn = [&](size_t c) {
    if (conns[c].fd >= 0) {
      epoll_ctl(epfd, EPOLL_CTL_DEL, conns[c].fd, nullptr);
      close(conns[c].fd);
    }
    conns[c].fd = -1;
    conns[c].busy = false;
  };
  for (size_t c = 0; c < conns.size(); ++c) open_conn(c);

  const int64_t start = NowNs();
  std::deque<size_t> waiting;  // due (or, closed loop, next) and unsent
  size_t next = 0;
  size_t finished = 0;

  auto finish = [&](size_t c, int status) {
    Conn& conn = conns[c];
    Exchange& ex = out[conn.request];
    ex.done_ns = NowNs();
    ex.status = status;
    const bool reusable = status != 0 && conn.reader.keep_alive();
    if (status != 0) ex.body = conn.reader.TakeBody();
    ++finished;
    conn.reader.Reset();
    conn.busy = false;
    conn.free_since = ex.done_ns;
    if (!reusable) {
      close_conn(c);
      open_conn(c);
    }
  };

  char buf[65536];
  epoll_event events[16];
  while (finished < n) {
    const int64_t now = NowNs();
    if (options.closed_loop) {
      while (next < n && waiting.empty()) waiting.push_back(next++);
    } else {
      while (next < n && start + due_ns[next] <= now) {
        out[next].due_ns = start + due_ns[next];
        waiting.push_back(next++);
      }
    }
    for (size_t c = 0; c < conns.size() && !waiting.empty(); ++c) {
      Conn& conn = conns[c];
      if (conn.busy) continue;
      if (conn.fd < 0) open_conn(c);
      const size_t r = waiting.front();
      waiting.pop_front();
      Exchange& ex = out[r];
      ex.sent_ns = NowNs();
      if (options.closed_loop) ex.due_ns = ex.sent_ns;
      ex.ready_ns = std::max(ex.due_ns, conn.free_since);
      conn.busy = true;
      conn.request = r;
      conn.first_byte = false;
      if (conn.fd < 0 || !WriteAll(conn.fd, requests[r])) {
        ex.first_byte_ns = ex.sent_ns;
        finish(c, 0);
        continue;
      }
      if (options.closed_loop) {
        while (next < n && waiting.empty()) waiting.push_back(next++);
      }
    }
    if (finished >= n) break;

    if (!options.closed_loop && next < n) {
      itimerspec its{};
      const int64_t at = start + due_ns[next];
      its.it_value.tv_sec = at / 1'000'000'000;
      its.it_value.tv_nsec = at % 1'000'000'000;
      timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
    }
    const int ready = epoll_wait(epfd, events, 16, 100);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == ~0ull) {
        uint64_t expirations = 0;
        ssize_t got = read(tfd, &expirations, sizeof expirations);
        (void)got;
        continue;
      }
      const size_t c = events[e].data.u64;
      Conn& conn = conns[c];
      if (conn.fd < 0) continue;
      for (;;) {
        const ssize_t got = recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) {  // EOF or reset
          if (conn.busy) {
            out[conn.request].first_byte_ns = NowNs();
            finish(c, 0);
          } else {
            close_conn(c);
            open_conn(c);
          }
          break;
        }
        if (!conn.busy) continue;  // stray bytes: ignore
        Exchange& ex = out[conn.request];
        if (!conn.first_byte) {
          conn.first_byte = true;
          ex.first_byte_ns = NowNs();
        }
        conn.reader.Feed(std::string_view(buf, static_cast<size_t>(got)));
        if (conn.reader.done()) {
          finish(c, conn.reader.status());
          break;
        }
        if (conn.reader.failed()) {
          finish(c, 0);
          break;
        }
      }
    }
    const int64_t later = NowNs();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].busy && later - out[conns[c].request].sent_ns > kResponseTimeoutNs) {
        if (!conns[c].first_byte) out[conns[c].request].first_byte_ns = later;
        finish(c, 0);
      }
    }
  }
  for (size_t c = 0; c < conns.size(); ++c) close_conn(c);
  close(tfd);
  close(epfd);
  return out;
}

std::string HttpGet(std::string_view target) {
  std::string req = "GET ";
  req.append(target);
  req.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  return req;
}

std::string UrlEncode(std::string_view s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

}  // namespace e2ebench
