#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/protocol.hpp"
#include "scenario/sweep.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::serve {

namespace {

using util::json::Value;

/// One submitted job. Events are stored pre-encoded (frame + '\n') so a
/// watcher replays them with plain writes; the log is append-only, which
/// lets late watchers start from index 0 and still see the full history.
struct Job {
  std::uint64_t id = 0;
  bool is_sweep = false;
  scenario::ScenarioSpec spec;               // run jobs
  std::vector<scenario::ScenarioSpec> grid;  // sweep jobs
  std::uint32_t seeds_per_cell = 1;
  JobState state = JobState::kQueued;
  util::CancelToken cancel;
  /// Wall-clock deadline, armed when a worker dequeues the job (only when
  /// ServerOptions::job_timeout > 0). The reaper cancels the job past it.
  bool has_deadline = false;
  bool timed_out = false;
  std::chrono::steady_clock::time_point deadline;
  std::vector<std::string> events;
  Value result;  // null until done (or cancelled with partial cells)
  std::string error;
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions options) : options(std::move(options)) {}

  ServerOptions options;
  int listen_fd = -1;
  bool started = false;
  std::atomic<bool> stopping{false};

  // One mutex + one condvar guard everything below; waiters (workers,
  // watchers, wait()) share the condvar and re-check their predicates.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs;
  std::deque<std::uint64_t> queue;
  std::uint64_t next_job_id = 1;
  bool shutdown_requested = false;
  std::vector<int> conn_fds;

  /// One accepted connection's thread. The loop sets `done` (under mu)
  /// as its last step, and the listener joins and drops finished ones
  /// before it starts another, so a finished connection's stack is
  /// unmapped by the next accept rather than kept until stop().
  struct Connection {
    std::thread thread;
    bool done = false;
  };

  std::thread listener;
  std::thread reaper;
  std::vector<std::thread> workers;
  std::list<Connection> connections;

  /// The most connections served at once, each on its own thread; the
  /// same as the listen backlog. The listener refuses one more with a
  /// too_many_connections error frame, as it does one whose thread
  /// cannot be started.
  static constexpr std::size_t kMaxConnections = 64;

  // --- socket helpers -----------------------------------------------------

  static bool write_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      // MSG_NOSIGNAL: a vanished peer must surface as an error on this
      // thread, not SIGPIPE the whole process.
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // --- job lifecycle ------------------------------------------------------

  void append_event_locked(Job& job, const Value& event) {
    job.events.push_back(encode_frame(event));
    cv.notify_all();
  }

  void finish_job(Job& job, JobState state, Value result, std::string error) {
    const std::lock_guard<std::mutex> lock(mu);
    job.state = state;
    job.result = std::move(result);
    job.error = std::move(error);
    Value event = event_frame(state == JobState::kDone     ? "job_done"
                              : state == JobState::kFailed ? "job_failed"
                                                           : "job_cancelled",
                              job.id);
    // A cancelled sweep still carries its completed cells — they are
    // bit-identical to a batch run and too expensive to throw away.
    if (!job.result.is_null()) event.set("result", job.result);
    if (!job.error.empty()) event.set("error", job.error);
    append_event_locked(job, event);
  }

  void run_job(Job& job) {
    try {
      const util::ScopedCancel install(&job.cancel);
      util::this_thread_check_cancelled();  // cancelled while being dequeued
      if (!job.is_sweep) {
        const scenario::RunMetrics metrics =
            scenario::registry().run(job.spec.protocol, job.spec);
        Value result = Value::object();
        result.set("metrics", metrics.to_json());
        finish_job(job, JobState::kDone, std::move(result), "");
        return;
      }
      scenario::SweepOptions sweep_options;
      sweep_options.seeds_per_cell = job.seeds_per_cell;
      sweep_options.threads = options.sweep_threads;
      const scenario::SweepRunner runner(sweep_options);
      const auto observe = [&](const scenario::SweepEvent& task) {
        Value event = event_frame("task_done", job.id);
        event.set("cell", static_cast<std::uint64_t>(task.cell));
        event.set("rep", static_cast<std::uint64_t>(task.rep));
        event.set("wall_ms", task.wall_ms);
        if (task.metrics == nullptr) {
          event.set("cancelled", true);
        } else if (!task.metrics->timings().empty()) {
          // The per-task progress events carry the phase-kernel timings so
          // a live dashboard sees where each run's wall-clock went.
          Value timings = Value::object();
          for (const auto& [name, ms] : task.metrics->timings()) {
            timings.set(name, ms);
          }
          event.set("timings", std::move(timings));
        }
        const std::lock_guard<std::mutex> lock(mu);
        append_event_locked(job, event);
      };
      const scenario::SweepReport report =
          runner.run_controlled(job.grid, &job.cancel, observe);
      Value result = Value::object();
      Value cells = Value::array();
      for (const scenario::CellAggregate& cell : report.cells) {
        cells.push_back(cell.to_json());
      }
      result.set("cells", std::move(cells));
      Value indices = Value::array();
      for (const std::size_t index : report.cell_indices) {
        indices.push_back(static_cast<std::uint64_t>(index));
      }
      result.set("cell_indices", std::move(indices));
      result.set("cancelled_cells",
                 static_cast<std::uint64_t>(report.cancelled_cells));
      result.set("cancelled", report.cancelled);
      finish_job(job, report.cancelled ? JobState::kCancelled : JobState::kDone,
                 std::move(result), "");
    } catch (const util::OperationCancelled&) {
      // Same unwind for a client cancel and a deadline kill; the reaper's
      // timed_out mark (written under mu) tells them apart.
      bool timed_out = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        timed_out = job.timed_out;
      }
      if (timed_out) {
        finish_job(job, JobState::kFailed, Value(), "timeout");
      } else {
        finish_job(job, JobState::kCancelled, Value(), "");
      }
    } catch (const std::exception& error) {
      finish_job(job, JobState::kFailed, Value(), error.what());
    }
  }

  /// Deadline reaper: wakes every 100 ms (or on any state change) and
  /// cancels running jobs past their deadline. Cancellation latency is
  /// therefore bounded by one poll interval plus one core round/slice.
  void reaper_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping.load()) {
      const auto now = std::chrono::steady_clock::now();
      for (auto& [id, job] : jobs) {
        if (job->state == JobState::kRunning && job->has_deadline &&
            !job->timed_out && now >= job->deadline) {
          job->timed_out = true;
          job->cancel.request();
        }
      }
      cv.wait_for(lock, std::chrono::milliseconds(100));
    }
  }

  void worker_loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stopping.load() || !queue.empty(); });
        if (stopping.load()) return;
        const std::uint64_t id = queue.front();
        queue.pop_front();
        job = jobs.at(id).get();
        // Dequeue and state change are one atomic step: a job is never
        // "queued" without being in the queue (cancel relies on that).
        job->state = JobState::kRunning;
        if (options.job_timeout > 0.0) {
          job->has_deadline = true;
          job->deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(
                                  options.job_timeout));
        }
        append_event_locked(*job, event_frame("job_started", id));
      }
      run_job(*job);
    }
  }

  // --- request handlers (connection threads) ------------------------------

  static Value job_to_json(const Job& job, bool detail) {
    Value out = Value::object();
    out.set("job", job.id);
    out.set("kind", job.is_sweep ? "sweep" : "run");
    out.set("state", job_state_name(job.state));
    if (detail) {
      out.set("events", static_cast<std::uint64_t>(job.events.size()));
      if (!job.error.empty()) out.set("error", job.error);
      if (!job.result.is_null()) out.set("result", job.result);
    }
    return out;
  }

  bool handle_submit(int fd, const Request& request) {
    // Validate against the registry at the protocol boundary so a bad
    // spec fails the submit synchronously instead of inside a worker.
    try {
      const auto check = [](const scenario::ScenarioSpec& spec) {
        const scenario::Protocol& protocol =
            scenario::registry().find(spec.protocol);
        scenario::validate_frame(spec);
        scenario::registry().validate_knobs(protocol, spec);
      };
      if (request.op == Op::kSubmitRun) {
        check(request.spec);
      } else {
        for (const scenario::ScenarioSpec& spec : request.grid) check(spec);
      }
    } catch (const std::exception& error) {
      return write_all(fd, encode_frame(error_response(
                               request.id, "bad_request", error.what())));
    }

    std::uint64_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (shutdown_requested || stopping.load()) {
        return write_all(
            fd, encode_frame(error_response(request.id, "shutting_down",
                                            "server is shutting down")));
      }
      if (queue.size() >= options.queue_depth) {
        return write_all(
            fd, encode_frame(error_response(
                    request.id, "queue_full",
                    util::str_cat("job queue is full (depth ",
                                  options.queue_depth, "); retry later"))));
      }
      id = next_job_id++;
      auto job = std::make_unique<Job>();
      job->id = id;
      job->is_sweep = request.op == Op::kSubmitSweep;
      job->spec = request.spec;
      job->grid = request.grid;
      job->seeds_per_cell = request.seeds_per_cell;
      job->events.push_back(encode_frame(event_frame("job_queued", id)));
      jobs.emplace(id, std::move(job));
      queue.push_back(id);
      cv.notify_all();
    }
    Value reply = ok_response(request.id);
    reply.set("job", id);
    reply.set("state", job_state_name(JobState::kQueued));
    if (!write_all(fd, encode_frame(reply))) return false;
    if (request.watch) return stream_job_events(fd, id);
    return true;
  }

  bool stream_job_events(int fd, std::uint64_t id) {
    std::size_t index = 0;
    for (;;) {
      std::vector<std::string> batch;
      bool vanished = false;
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          if (stopping.load()) return true;
          const auto it = jobs.find(id);
          if (it == jobs.end()) return true;
          return index < it->second->events.size() ||
                 job_state_is_terminal(it->second->state);
        });
        const auto it = jobs.find(id);
        if (it == jobs.end()) {
          vanished = true;  // a reset cleared the table mid-watch
        } else {
          Job& job = *it->second;
          while (index < job.events.size()) batch.push_back(job.events[index++]);
          finished = job_state_is_terminal(job.state) &&
                     index == job.events.size();
        }
        if (stopping.load()) finished = true;
      }
      for (const std::string& line : batch) {
        if (!write_all(fd, line)) return false;
      }
      if (vanished) {
        // Close the stream with a terminal frame so the client's
        // read-until-terminal loop cannot hang.
        return write_all(fd, encode_frame(event_frame("job_cancelled", id)));
      }
      if (finished) return true;
    }
  }

  bool handle_status(int fd, const Request& request) {
    const std::lock_guard<std::mutex> lock(mu);
    Value reply = ok_response(request.id);
    if (request.has_job) {
      const auto it = jobs.find(request.job);
      if (it == jobs.end()) {
        return write_all(
            fd, encode_frame(error_response(
                    request.id, "unknown_job",
                    util::str_cat("no job ", request.job, " in the table"))));
      }
      reply.set("status", job_to_json(*it->second, /*detail=*/true));
    } else {
      Value table = Value::array();
      for (const auto& [id, job] : jobs) {
        table.push_back(job_to_json(*job, /*detail=*/false));
      }
      reply.set("jobs", std::move(table));
      reply.set("queued", static_cast<std::uint64_t>(queue.size()));
    }
    return write_all(fd, encode_frame(reply));
  }

  bool handle_watch(int fd, const Request& request) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      const auto it = jobs.find(request.job);
      if (it == jobs.end()) {
        return write_all(
            fd, encode_frame(error_response(
                    request.id, "unknown_job",
                    util::str_cat("no job ", request.job, " in the table"))));
      }
      // The response is written before any event frame: conn writes all
      // happen on this thread, so ordering is by construction.
    }
    Value reply = ok_response(request.id);
    reply.set("job", request.job);
    if (!write_all(fd, encode_frame(reply))) return false;
    return stream_job_events(fd, request.job);
  }

  bool handle_cancel(int fd, const Request& request) {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(request.job);
    if (it == jobs.end()) {
      return write_all(
          fd, encode_frame(error_response(
                  request.id, "unknown_job",
                  util::str_cat("no job ", request.job, " in the table"))));
    }
    Job& job = *it->second;
    if (!job_state_is_terminal(job.state)) {
      job.cancel.request();
      if (job.state == JobState::kQueued) {
        // Never ran: cancel it right here instead of waking a worker just
        // to observe the token.
        for (auto queued = queue.begin(); queued != queue.end(); ++queued) {
          if (*queued == job.id) {
            queue.erase(queued);
            break;
          }
        }
        job.state = JobState::kCancelled;
        append_event_locked(job, event_frame("job_cancelled", job.id));
      }
    }
    Value reply = ok_response(request.id);
    reply.set("job", job.id);
    reply.set("state", job_state_name(job.state));
    return write_all(fd, encode_frame(reply));
  }

  bool handle_reset(int fd, const Request& request) {
    const std::lock_guard<std::mutex> lock(mu);
    std::uint64_t cancelled = 0;
    std::uint64_t cleared = 0;
    queue.clear();
    for (auto it = jobs.begin(); it != jobs.end();) {
      Job& job = *it->second;
      if (job.state == JobState::kQueued) {
        job.cancel.request();
        job.state = JobState::kCancelled;
        append_event_locked(job, event_frame("job_cancelled", job.id));
        ++cancelled;
        ++it;
      } else if (job.state == JobState::kRunning) {
        // A worker still references this Job; ask it to stop and let it
        // reach a terminal state on its own.
        job.cancel.request();
        ++cancelled;
        ++it;
      } else {
        it = jobs.erase(it);
        ++cleared;
      }
    }
    cv.notify_all();
    Value reply = ok_response(request.id);
    reply.set("cancelled", cancelled);
    reply.set("cleared", cleared);
    return write_all(fd, encode_frame(reply));
  }

  bool handle_shutdown(int fd, const Request& request) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      shutdown_requested = true;
      for (auto& [id, job] : jobs) job->cancel.request();
      cv.notify_all();
    }
    Value reply = ok_response(request.id);
    reply.set("shutdown", true);
    return write_all(fd, encode_frame(reply));
  }

  bool handle_frame(int fd, const std::string& frame) {
    Request request;
    try {
      request = parse_request(frame);
    } catch (const std::exception& error) {
      return write_all(
          fd, encode_frame(error_response("", "bad_request", error.what())));
    }
    switch (request.op) {
      case Op::kSubmitRun:
      case Op::kSubmitSweep: return handle_submit(fd, request);
      case Op::kStatus: return handle_status(fd, request);
      case Op::kWatch: return handle_watch(fd, request);
      case Op::kCancel: return handle_cancel(fd, request);
      case Op::kReset: return handle_reset(fd, request);
      case Op::kShutdown: return handle_shutdown(fd, request);
      case Op::kList: {
        Value reply = ok_response(request.id);
        reply.set("registry", scenario::registry_to_json(scenario::registry()));
        return write_all(fd, encode_frame(reply));
      }
    }
    return true;
  }

  void connection_loop(int fd, Connection& connection) {
    FrameReader reader;
    char buffer[4096];
    while (!stopping.load()) {
      std::optional<std::string> frame;
      try {
        frame = reader.next();
      } catch (const std::exception& error) {
        // Oversized partial frame: framing is lost, so answer and drop
        // the connection rather than resynchronize on garbage.
        write_all(fd,
                  encode_frame(error_response("", "bad_request", error.what())));
        break;
      }
      if (frame.has_value()) {
        if (!handle_frame(fd, *frame)) break;
        continue;
      }
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
    ::close(fd);
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = conn_fds.begin(); it != conn_fds.end(); ++it) {
      if (*it == fd) {
        conn_fds.erase(it);
        break;
      }
    }
    connection.done = true;
  }

  /// Join and drop the connections whose loop has returned. A done loop
  /// only has to leave its (already released) lock scope, so the join
  /// does not wait on mu.
  void reap_connections_locked() {
    for (auto it = connections.begin(); it != connections.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections.erase(it);
    }
  }

  void listen_loop() {
    while (!stopping.load()) {
      pollfd poll_fd{};
      poll_fd.fd = listen_fd;
      poll_fd.events = POLLIN;
      // The timeout bounds how long stop() waits for the listener to
      // notice the stopping flag.
      const int ready = ::poll(&poll_fd, 1, 200);
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      const std::lock_guard<std::mutex> lock(mu);
      if (stopping.load()) {
        ::close(fd);
        return;
      }
      reap_connections_locked();
      if (connections.size() < kMaxConnections) {
        conn_fds.push_back(fd);
        Connection& connection = connections.emplace_back();
        try {
          connection.thread =
              std::thread([this, fd, &connection] { connection_loop(fd, connection); });
          continue;
        } catch (const std::system_error&) {
          connections.pop_back();
          conn_fds.pop_back();
        }
      }
      // A fresh socket's send buffer is empty, so this one short frame
      // does not block the listener.
      write_all(fd, encode_frame(error_response(
                        "", "too_many_connections",
                        util::str_cat("the daemon serves at most ", kMaxConnections,
                                      " connections at once; retry after one closes"))));
      ::close(fd);
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

const std::string& Server::socket_path() const {
  return impl_->options.socket_path;
}

void Server::start() {
  Impl& impl = *impl_;
  require(!impl.started, "serve: server already started");
  require(!impl.options.socket_path.empty(), "serve: socket path is empty");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  require(impl.options.socket_path.size() < sizeof(address.sun_path),
          util::str_cat("serve: socket path '", impl.options.socket_path,
                        "' exceeds the AF_UNIX limit of ",
                        sizeof(address.sun_path) - 1, " bytes"));
  std::memcpy(address.sun_path, impl.options.socket_path.c_str(),
              impl.options.socket_path.size() + 1);
  impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(impl.listen_fd >= 0,
          util::str_cat("serve: socket() failed: ", std::strerror(errno)));
  ::unlink(impl.options.socket_path.c_str());  // replace a stale socket file
  if (::bind(impl.listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    throw PreconditionError(util::str_cat("serve: bind('",
                                          impl.options.socket_path,
                                          "') failed: ", reason));
  }
  if (::listen(impl.listen_fd, static_cast<int>(Impl::kMaxConnections)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    throw PreconditionError(util::str_cat("serve: listen failed: ", reason));
  }
  const unsigned workers = impl.options.workers == 0 ? 1 : impl.options.workers;
  impl.workers.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    impl.workers.emplace_back([&impl] { impl.worker_loop(); });
  }
  impl.listener = std::thread([&impl] { impl.listen_loop(); });
  if (impl.options.job_timeout > 0.0) {
    impl.reaper = std::thread([&impl] { impl.reaper_loop(); });
  }
  impl.started = true;
}

void Server::wait() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.mu);
  impl.cv.wait(lock, [&] {
    return impl.shutdown_requested || impl.stopping.load();
  });
}

void Server::stop() {
  Impl& impl = *impl_;
  if (!impl.started) return;
  impl.stopping.store(true);
  {
    const std::lock_guard<std::mutex> lock(impl.mu);
    impl.shutdown_requested = true;
    for (auto& [id, job] : impl.jobs) job->cancel.request();
    impl.cv.notify_all();
  }
  if (impl.listener.joinable()) impl.listener.join();
  if (impl.reaper.joinable()) impl.reaper.join();
  {
    // Unblock connection threads stuck in recv()/send().
    const std::lock_guard<std::mutex> lock(impl.mu);
    for (const int fd : impl.conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (Impl::Connection& connection : impl.connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  for (std::thread& worker : impl.workers) {
    if (worker.joinable()) worker.join();
  }
  impl.connections.clear();
  impl.workers.clear();
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  ::unlink(impl.options.socket_path.c_str());
  impl.started = false;
}

}  // namespace poq::serve
