// The `poqsim serve` daemon: a long-running process owning warm scenario
// machinery, accepting jobs over a local AF_UNIX socket speaking the
// newline-delimited JSON protocol of serve/protocol.hpp.
//
// Why a daemon at all: launching a fresh poqsim process per run pays
// process startup, registry construction and (for sweeps) thread-pool
// spin-up on every request. A warm server amortizes all of that — the
// BENCH_serve suite measures the gap — and adds the operational pieces a
// batch CLI cannot offer: a bounded job queue with admission control,
// cooperative cancellation of in-flight sweeps, and live per-task progress
// streaming.
//
// Threading model (one mutex, one condvar, no lock ordering to get wrong):
//  - a listener thread accepts connections and spawns one reader thread
//    per connection; every byte written to a connection is written by that
//    connection's own thread, never by workers;
//  - `workers` job-runner threads pull job ids off a FIFO queue bounded by
//    `queue_depth` (a full queue rejects submits with code "queue_full");
//  - jobs append encoded event frames to their per-job log under the
//    mutex; watcher connections replay the log from index 0 and block on
//    the condvar for more, so late watchers see the full history;
//  - cancellation: each job owns a util::CancelToken; the runner installs
//    it via util::ScopedCancel, so the core per-round checks abort the run
//    at the next round/slice/epoch boundary. Completed sweep cells stay
//    bit-identical to a batch run; cancelled cells are excluded whole.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace poq::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; created on start (replacing a
  /// stale file), unlinked on stop.
  std::string socket_path;
  /// Concurrent job-runner threads (max jobs in flight).
  unsigned workers = 1;
  /// Max jobs waiting in the queue (excluding running ones); submits
  /// beyond this are rejected with code "queue_full".
  std::size_t queue_depth = 8;
  /// SweepOptions::threads for sweep jobs (0 = auto from hardware).
  unsigned sweep_threads = 1;
  /// Per-job wall-clock budget in seconds (0 = no deadline). A job still
  /// running this long after it was dequeued is cancelled through its
  /// CancelToken and fails with error "timeout" — distinguishing the
  /// deadline from a client cancel, which stays a clean job_cancelled.
  double job_timeout = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // stop()s if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and spawn listener + workers. Throws
  /// PreconditionError when the path is unusable (too long for
  /// sockaddr_un, bind failure).
  void start();

  /// Block until a client's shutdown op (or stop()) is observed.
  void wait();

  /// Cancel all jobs, drain threads, close connections, unlink the
  /// socket. Idempotent; also invoked by the destructor.
  void stop();

  [[nodiscard]] const std::string& socket_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace poq::serve
