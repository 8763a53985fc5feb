#include "io.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <ctime>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::runtime_error system_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

int remaining_ms(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

SteadyClock::time_point deadline_after(double seconds) {
  return SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                  std::chrono::duration<double>(seconds));
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, const std::string& stdout_path) {
  // Everything the child touches is prepared before fork: between fork
  // and exec it may only make async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  int pipe_fds[2] = {-1, -1};
  if (stdout_path.empty() && ::pipe2(pipe_fds, O_CLOEXEC) != 0) throw system_error("pipe");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Die with the benchmark, so no daemon outlives a killed run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = stdout_path.empty()
                        ? pipe_fds[1]
                        : ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (out < 0 || ::dup2(out, STDOUT_FILENO) < 0) ::_exit(127);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (pipe_fds[1] >= 0) ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  if (pid_ < 0) {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    throw system_error("fork");
  }
}

Child::~Child() {
  kill_and_reap();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void Child::kill_and_reap() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status_, 0);
  pid_ = -1;
}

std::string Child::read_stdout(double timeout_s) {
  if (out_fd_ < 0) throw std::logic_error("child stdout is not a pipe");
  const auto deadline = deadline_after(timeout_s);
  std::string out;
  char buffer[4096];
  for (;;) {
    pollfd poll_fd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, remaining_ms(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      kill_and_reap();
      throw std::runtime_error("child produced no end of output within the time limit");
    }
    const ssize_t n = ::read(out_fd_, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

bool Child::running() {
  if (pid_ < 0) return false;
  if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

int Child::wait(double timeout_s) {
  const auto deadline = deadline_after(timeout_s);
  while (pid_ >= 0) {
    if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    if (SteadyClock::now() >= deadline) {
      kill_and_reap();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (WIFEXITED(status_)) return WEXITSTATUS(status_);
  return WIFSIGNALED(status_) ? 128 + WTERMSIG(status_) : 1;
}

double Child::cpu_s() const {
  clockid_t clock{};
  timespec now{};
  if (pid_ < 0 || ::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &now) != 0) {
    throw std::runtime_error("cannot read the child's CPU clock");
  }
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double Child::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM for the child");
}

Connection::Connection(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw system_error("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    const std::runtime_error error = system_error("connect " + socket_path);
    ::close(fd_);
    fd_ = -1;
    throw error;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw system_error("send");
    sent += static_cast<std::size_t>(n);
  }
}

std::string Connection::read_frame(double timeout_s) {
  const auto deadline = deadline_after(timeout_s);
  char buffer[8192];
  for (;;) {
    if (std::optional<std::string> frame = reader_.next()) return std::move(*frame);
    pollfd poll_fd{fd_, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, remaining_ms(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("no frame from the server within the time limit");
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    reader_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

}  // namespace perfbench
