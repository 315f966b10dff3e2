#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.h"

namespace e2ebench {

namespace {

// Appends what is readable on `*fd`; closes it and sets -1 at EOF.
void Drain(int* fd, std::string* into) {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(*fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      close(*fd);
      *fd = -1;
      return;
    }
    into->append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

Child::~Child() {
  if (pid_ > 0) Finish(SIGKILL);
}

bool Child::Spawn(const std::vector<std::string>& argv) {
  int out_pipe[2];
  int err_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) return false;
  if (pipe2(err_pipe, O_CLOEXEC) != 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]}) {
      close(fd);
    }
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  fcntl(out_fd_, F_SETFL, O_NONBLOCK);
  fcntl(err_fd_, F_SETFL, O_NONBLOCK);
  pid_ = pid;
  out_.clear();
  err_.clear();
  return true;
}

uint16_t Child::WaitForListeningPort(int timeout_ms) {
  static const char kNeedle[] = "listening on 127.0.0.1:";
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (err_fd_ >= 0) {
    const size_t at = err_.find(kNeedle);
    if (at != std::string::npos) {
      const size_t eol = err_.find('\n', at);
      if (eol != std::string::npos) {
        return static_cast<uint16_t>(
            std::atoi(err_.c_str() + at + sizeof kNeedle - 1));
      }
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) return 0;
    pollfd p{err_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) return 0;
    Drain(&err_fd_, &err_);
  }
  return 0;
}

long PeakRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

long Child::PeakRssKb() const { return pid_ > 0 ? e2ebench::PeakRssKb(pid_) : 0; }

bool Child::WaitUntilCatching(int signal, int timeout_ms) const {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  const std::string path = "/proc/" + std::to_string(pid_) + "/status";
  while (pid_ > 0 && NowNs() < deadline) {
    std::ifstream status(path);
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("SigCgt:", 0) == 0) {
        const unsigned long long caught = std::strtoull(line.c_str() + 7, nullptr, 16);
        if (caught & (1ull << (signal - 1))) return true;
      }
    }
    usleep(200);
  }
  return false;
}

Child::Exit Child::Finish(int signal) {
  Exit exit;
  if (pid_ <= 0) return exit;
  if (signal != 0) kill(pid_, signal);
  while (out_fd_ >= 0 || err_fd_ >= 0) {
    pollfd p[2];
    int n = 0;
    if (out_fd_ >= 0) p[n++] = {out_fd_, POLLIN, 0};
    if (err_fd_ >= 0) p[n++] = {err_fd_, POLLIN, 0};
    if (poll(p, static_cast<nfds_t>(n), 60'000) == 0) {
      kill(pid_, SIGKILL);  // a child that holds its pipes open too long
    }
    if (out_fd_ >= 0) Drain(&out_fd_, &out_);
    if (err_fd_ >= 0) Drain(&err_fd_, &err_);
  }
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  exit.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                : 128 + WTERMSIG(status);
  exit.out = std::move(out_);
  exit.err = std::move(err_);
  return exit;
}

}  // namespace e2ebench
