// Child processes and serve-protocol connections for perfbench.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/// A spawned program. stdout goes to a pipe (read_stdout) or, when
/// `stdout_path` is set, to that file; stderr is inherited. The
/// destructor kills and reaps a child that is still running, so no
/// process outlives the benchmark on any exit path.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& stdout_path = "");
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Read the stdout pipe to EOF; kills the child past `timeout_s`.
  [[nodiscard]] std::string read_stdout(double timeout_s);
  /// Reap the child, waiting at most `timeout_s` before killing it.
  /// Returns the exit code (128 + signal when killed by a signal).
  int wait(double timeout_s);
  [[nodiscard]] bool running();
  /// CPU time the running child has used so far, all threads, in seconds.
  /// The guest kernel leaves out time the hypervisor withheld (steal).
  [[nodiscard]] double cpu_s() const;
  /// Peak resident set of the running child so far (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int status_ = 0;
};

/// One client connection to `poqsim serve`, reading raw frames so the
/// caller can time their parsing.
class Connection {
 public:
  /// Connect once; throws std::runtime_error when nothing accepts.
  explicit Connection(const std::string& socket_path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& bytes);
  /// Block for the next complete frame (without its newline); throws on
  /// EOF or after `timeout_s`.
  [[nodiscard]] std::string read_frame(double timeout_s);

 private:
  int fd_ = -1;
  poq::serve::FrameReader reader_;
};

}  // namespace perfbench
