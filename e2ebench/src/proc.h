// Child processes of a run (xpathd and the ingest children): spawned with
// stdout and stderr piped back, killed with the benchmark if it dies, and
// always reaped.
#ifndef E2EBENCH_PROC_H_
#define E2EBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Peak RSS (VmHWM) of process `pid`, in KiB; 0 when it is gone.
long PeakRssKb(pid_t pid);

class Child {
 public:
  Child() = default;
  ~Child();  // SIGKILLs and reaps a child still running
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Forks and execs argv[0]. False when the fork or pipes fail; an exec
  /// failure shows as exit code 127.
  bool Spawn(const std::vector<std::string>& argv);

  /// Reads stderr until it contains "listening on 127.0.0.1:PORT\n" and
  /// returns PORT, or 0 when the child exits or `timeout_ms` passes first.
  uint16_t WaitForListeningPort(int timeout_ms);

  /// Waits until the child has a handler installed for `signal` (its
  /// SigCgt mask in /proc), so that sending it is not a kill. False on
  /// timeout or when the child is gone.
  bool WaitUntilCatching(int signal, int timeout_ms) const;

  /// The child's peak RSS so far (VmHWM), in KiB. Unlike wait4's
  /// ru_maxrss, which keeps the RSS the child inherited from this process
  /// at fork across its exec, it counts only the program's own memory.
  long PeakRssKb() const;

  struct Exit {
    int code = -1;  // exit code, or 128 + signal
    std::string out;
    std::string err;
  };
  /// Sends `signal` (0: none), reads both pipes to EOF and reaps the child.
  Exit Finish(int signal);

  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string out_;
  std::string err_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_PROC_H_
