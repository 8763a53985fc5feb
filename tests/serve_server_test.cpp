// End-to-end tests of the serve daemon over a real AF_UNIX socket: job
// round trips, admission control, cancellation, and the determinism
// contract (server results bit-identical to batch runs, cancelled cells
// excluded whole). These suites also run under the TSan CI leg.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scenario/metrics.hpp"
#include "scenario/protocol.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace poq::serve {
namespace {

using util::json::Value;

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/poqsim-serve-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

scenario::ScenarioSpec quick_spec(std::size_t nodes, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "cycle";
  spec.nodes = nodes;
  spec.consumer_pairs = 4;
  spec.requests = 12;
  spec.seed = seed;
  return spec;
}

/// A job that never finishes on its own: zero generation means no request
/// is ever satisfiable, and the round budget is effectively infinite, so
/// only cancellation (one cheap round away) ends it.
scenario::ScenarioSpec blocker_spec() {
  scenario::ScenarioSpec spec = quick_spec(9, 1);
  spec.knobs["generation-rate"] = 0.0;
  spec.knobs["max-rounds"] = std::int64_t{2000000000};
  return spec;
}

/// Send `line` plus a newline as one frame on a fresh connection of its
/// own, bypassing the client's encoder, and return the daemon's reply
/// line.
std::string raw_round_trip(const std::string& socket, const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  socket.copy(address.sun_path, sizeof(address.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  const std::string frame = line + "\n";
  for (std::size_t sent = 0; sent < frame.size();) {
    const ssize_t wrote = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (wrote <= 0) break;
    sent += static_cast<std::size_t>(wrote);
  }
  std::string reply;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  ::close(fd);
  return reply;
}

Value submit_run_request(const scenario::ScenarioSpec& spec, bool watch) {
  Value request = Value::object();
  request.set("op", "submit_run");
  request.set("spec", spec.to_json());
  request.set("watch", watch);
  return request;
}

Value submit_sweep_request(const std::vector<scenario::ScenarioSpec>& grid,
                           std::uint32_t seeds, bool watch) {
  Value request = Value::object();
  request.set("op", "submit_sweep");
  Value cells = Value::array();
  for (const scenario::ScenarioSpec& spec : grid) cells.push_back(spec.to_json());
  request.set("grid", std::move(cells));
  request.set("seeds_per_cell", static_cast<std::uint64_t>(seeds));
  request.set("watch", watch);
  return request;
}

Value op_request(const std::string& op) {
  Value request = Value::object();
  request.set("op", op);
  return request;
}

Value job_request(const std::string& op, std::uint64_t job) {
  Value request = op_request(op);
  request.set("job", job);
  return request;
}

/// The determinism-relevant members of a cell aggregate: everything except
/// the wall-clock "timings" and "wall_ms".
void expect_cells_equal(const Value& actual, const Value& expected) {
  for (const char* key : {"spec", "seeds", "labels", "metrics"}) {
    EXPECT_EQ(actual.at(key), expected.at(key)) << "member '" << key << "'";
  }
}

struct ServerFixture {
  explicit ServerFixture(ServerOptions options) : server(std::move(options)) {
    server.start();
  }
  Server server;
};

ServerOptions options_with(const std::string& socket, unsigned workers,
                           std::size_t depth) {
  ServerOptions options;
  options.socket_path = socket;
  options.workers = workers;
  options.queue_depth = depth;
  return options;
}

TEST(ServeServer, RunJobMatchesDirectRegistryRun) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  const scenario::ScenarioSpec spec = quick_spec(16, 21);
  const Value reply = client.request(submit_run_request(spec, /*watch=*/true));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const Value terminal = client.read_events();
  ASSERT_EQ(terminal.at("event").as_string(), "job_done") << terminal.dump();

  const scenario::RunMetrics served = scenario::RunMetrics::from_json(
      terminal.at("result").at("metrics"));
  const scenario::RunMetrics direct =
      scenario::registry().run(spec.protocol, spec);
  // Bit-identical modulo wall-clock timings.
  EXPECT_EQ(served.to_json(/*include_timings=*/false).dump(),
            direct.to_json(/*include_timings=*/false).dump());
}

TEST(ServeServer, SweepJobMatchesBatchSweepRunner) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  const std::vector<scenario::ScenarioSpec> grid{quick_spec(9, 5),
                                                 quick_spec(16, 5)};
  const Value reply =
      client.request(submit_sweep_request(grid, /*seeds=*/2, /*watch=*/true));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  std::size_t task_events = 0;
  const Value terminal = client.read_events([&](const Value& event) {
    if (event.at("event").as_string() == "task_done") ++task_events;
  });
  ASSERT_EQ(terminal.at("event").as_string(), "job_done") << terminal.dump();
  EXPECT_EQ(task_events, grid.size() * 2);  // every (cell, rep) reported

  scenario::SweepOptions sweep_options;
  sweep_options.seeds_per_cell = 2;
  sweep_options.threads = 1;
  const std::vector<scenario::CellAggregate> batch =
      scenario::SweepRunner(sweep_options).run(grid);
  const Value& cells = terminal.at("result").at("cells");
  ASSERT_EQ(cells.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_cells_equal(cells.at(i), batch[i].to_json());
  }
  EXPECT_EQ(terminal.at("result").at("cancelled").as_bool(), false);
}

TEST(ServeServer, QueueFullSubmitsAreRejected) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 1));
  Client client(socket);
  client.connect();

  // Occupy the single worker...
  const Value running =
      client.request(submit_run_request(blocker_spec(), false));
  ASSERT_TRUE(running.at("ok").as_bool()) << running.dump();
  const auto blocker_id =
      static_cast<std::uint64_t>(running.at("job").as_number());
  for (int spin = 0; spin < 500; ++spin) {
    const Value status = client.request(job_request("status", blocker_id));
    if (status.at("status").at("state").as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...fill the queue (depth 1)...
  const Value queued = client.request(submit_run_request(blocker_spec(), false));
  ASSERT_TRUE(queued.at("ok").as_bool()) << queued.dump();
  // ...and watch admission control reject the next submit.
  const Value rejected =
      client.request(submit_run_request(quick_spec(9, 1), false));
  ASSERT_FALSE(rejected.at("ok").as_bool()) << rejected.dump();
  EXPECT_EQ(rejected.at("code").as_string(), "queue_full");

  // Cancelling the blocker frees the worker; the queued job then runs and
  // is itself cancellable — the queue drains rather than wedging.
  const Value cancel = client.request(job_request("cancel", blocker_id));
  ASSERT_TRUE(cancel.at("ok").as_bool()) << cancel.dump();
}

TEST(ServeServer, CancelMidSweepKeepsCompletedCellsBitIdentical) {
  const std::string socket = unique_socket_path();
  ServerOptions options = options_with(socket, 1, 4);
  options.sweep_threads = 1;  // tasks complete in (cell, rep) order
  ServerFixture fixture(options);
  Client watcher(socket);
  watcher.connect();

  // Two quick cells, then a cell that only cancellation can end.
  const std::vector<scenario::ScenarioSpec> grid{
      quick_spec(9, 31), quick_spec(16, 31), blocker_spec()};
  const Value reply =
      watcher.request(submit_sweep_request(grid, /*seeds=*/1, /*watch=*/true));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const auto job = static_cast<std::uint64_t>(reply.at("job").as_number());

  Client controller(socket);
  controller.connect();
  bool cancel_sent = false;
  const Value terminal = watcher.read_events([&](const Value& event) {
    if (!cancel_sent && event.at("event").as_string() == "task_done") {
      // First completed task: ask for cancellation while the sweep runs.
      const Value cancelled = controller.request(job_request("cancel", job));
      ASSERT_TRUE(cancelled.at("ok").as_bool()) << cancelled.dump();
      cancel_sent = true;
    }
  });
  ASSERT_TRUE(cancel_sent);
  ASSERT_EQ(terminal.at("event").as_string(), "job_cancelled")
      << terminal.dump();

  const Value& result = terminal.at("result");
  EXPECT_TRUE(result.at("cancelled").as_bool());
  const Value& cells = result.at("cells");
  const Value& indices = result.at("cell_indices");
  ASSERT_EQ(cells.size(), indices.size());
  ASSERT_GE(cells.size(), 1u);  // the observed task_done cell must be there
  ASSERT_GT(result.at("cancelled_cells").as_number(), 0.0);
  // Every completed cell is bit-identical to a batch run of that spec;
  // cancelled cells are excluded whole, never partially aggregated.
  scenario::SweepOptions sweep_options;
  sweep_options.seeds_per_cell = 1;
  sweep_options.threads = 1;
  const scenario::SweepRunner batch(sweep_options);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto index = static_cast<std::size_t>(indices.at(i).as_number());
    ASSERT_LT(index, grid.size());
    ASSERT_NE(index, 2u) << "the blocker cell can never complete";
    const std::vector<scenario::CellAggregate> expected =
        batch.run({grid[index]});
    ASSERT_EQ(expected.size(), 1u);
    expect_cells_equal(cells.at(i), expected[0].to_json());
  }
}

TEST(ServeServer, MalformedFramesGetBadRequestAndKeepTheConnection) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  const Value garbage = client.request(Value("not an object"));
  ASSERT_FALSE(garbage.at("ok").as_bool());
  EXPECT_EQ(garbage.at("code").as_string(), "bad_request");

  Value truncated_spec = op_request("submit_run");  // missing "spec"
  const Value missing = client.request(truncated_spec);
  ASSERT_FALSE(missing.at("ok").as_bool());
  EXPECT_EQ(missing.at("code").as_string(), "bad_request");

  // Nesting one level past the parser's bound is refused, not recursed.
  Value deep = Value::array();
  for (std::size_t level = 1; level <= util::json::kMaxParseDepth; ++level) {
    Value outer = Value::array();
    outer.push_back(std::move(deep));
    deep = std::move(outer);
  }
  const Value too_deep = client.request(deep);
  ASSERT_FALSE(too_deep.at("ok").as_bool());
  EXPECT_EQ(too_deep.at("code").as_string(), "bad_request");
  EXPECT_NE(too_deep.at("error").as_string().find("nesting depth"), std::string::npos)
      << too_deep.dump();

  // A 300 000-byte frame of '[' (under kMaxFrameBytes) used to overflow
  // the parser's stack and kill the daemon with every queued job.
  const Value brackets = Value::parse(raw_round_trip(socket, std::string(300000, '[')));
  ASSERT_FALSE(brackets.at("ok").as_bool());
  EXPECT_EQ(brackets.at("code").as_string(), "bad_request");

  // The connection survives malformed frames: a valid request still works.
  const Value status = client.request(op_request("status"));
  EXPECT_TRUE(status.at("ok").as_bool()) << status.dump();
}

TEST(ServeServer, OversizedFrameClosesTheConnection) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  // > kMaxFrameBytes without a newline: framing is unrecoverable, so the
  // server answers bad_request and drops the connection.
  Value huge = op_request("status");
  huge.set("id", std::string(kMaxFrameBytes + 1, 'x'));
  const Value reply = client.request(huge);
  ASSERT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "bad_request");
  EXPECT_THROW((void)client.read_frame(), PreconditionError);  // closed
}

TEST(ServeServer, UnknownJobAndBadSpecErrors) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  const Value watch = client.request(job_request("watch", 999));
  ASSERT_FALSE(watch.at("ok").as_bool());
  EXPECT_EQ(watch.at("code").as_string(), "unknown_job");
  const Value cancel = client.request(job_request("cancel", 999));
  ASSERT_FALSE(cancel.at("ok").as_bool());
  EXPECT_EQ(cancel.at("code").as_string(), "unknown_job");

  // Registry validation runs at the submit boundary: an unknown knob or
  // an int knob outside its declared range fails synchronously with
  // bad_request, not inside a worker.
  scenario::ScenarioSpec unknown = quick_spec(9, 1);
  unknown.knobs["no-such-knob"] = 1.0;
  scenario::ScenarioSpec out_of_range = quick_spec(9, 1);
  out_of_range.protocol = "planned";
  out_of_range.knobs["window"] = std::int64_t{0};
  for (const scenario::ScenarioSpec& bad : {unknown, out_of_range}) {
    const Value rejected = client.request(submit_run_request(bad, false));
    ASSERT_FALSE(rejected.at("ok").as_bool()) << rejected.dump();
    EXPECT_EQ(rejected.at("code").as_string(), "bad_request");
  }
}

TEST(ServeServer, ConcurrentClientsGetIsolatedIdenticalResults) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 2, 16));

  constexpr int kClients = 4;
  std::vector<std::string> dumps(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client client(socket);
      client.connect();
      // Same spec from every client: the results must agree bit for bit.
      const Value reply =
          client.request(submit_run_request(quick_spec(16, 77), true));
      ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
      const Value terminal = client.read_events();
      ASSERT_EQ(terminal.at("event").as_string(), "job_done");
      dumps[i] = scenario::RunMetrics::from_json(
                     terminal.at("result").at("metrics"))
                     .to_json(/*include_timings=*/false)
                     .dump();
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(dumps[i], dumps[0]);
}

TEST(ServeServer, ResetCancelsQueuedJobsAndClearsFinishedOnes) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 8));
  Client client(socket);
  client.connect();

  const Value done = client.request(submit_run_request(quick_spec(9, 3), true));
  ASSERT_TRUE(done.at("ok").as_bool());
  (void)client.read_events();  // wait for it to finish

  const Value blocker = client.request(submit_run_request(blocker_spec(), false));
  ASSERT_TRUE(blocker.at("ok").as_bool());
  const Value queued = client.request(submit_run_request(blocker_spec(), false));
  ASSERT_TRUE(queued.at("ok").as_bool());

  const Value reset = client.request(op_request("reset"));
  ASSERT_TRUE(reset.at("ok").as_bool()) << reset.dump();
  EXPECT_GE(reset.at("cancelled").as_number(), 1.0);
  EXPECT_GE(reset.at("cleared").as_number(), 1.0);

  // The running blocker winds down to cancelled; nothing is left queued.
  const auto blocker_id =
      static_cast<std::uint64_t>(blocker.at("job").as_number());
  Value status = client.request(job_request("status", blocker_id));
  for (int spin = 0; spin < 500; ++spin) {
    if (status.at("ok").as_bool() &&
        status.at("status").at("state").as_string() == "cancelled") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    status = client.request(job_request("status", blocker_id));
  }
  EXPECT_EQ(status.at("status").at("state").as_string(), "cancelled")
      << status.dump();
}

TEST(ServeServer, ShutdownOpUnblocksWaitAndRefusesNewSubmits) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  Client client(socket);
  client.connect();

  const Value reply = client.request(op_request("shutdown"));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  fixture.server.wait();  // returns now that shutdown was requested
  const Value rejected =
      client.request(submit_run_request(quick_spec(9, 1), false));
  ASSERT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("code").as_string(), "shutting_down");
  fixture.server.stop();
  // The socket file is gone after stop().
  EXPECT_NE(::access(socket.c_str(), F_OK), 0);
}

TEST(ServeServer, JobTimeoutFailsWithTimeoutError) {
  // A job past its wall-clock budget is cancelled by the reaper and
  // fails with error "timeout" — not job_cancelled, which is reserved
  // for client cancels.
  const std::string socket = unique_socket_path();
  ServerOptions options = options_with(socket, 1, 4);
  options.job_timeout = 0.3;
  ServerFixture fixture(options);
  Client client(socket);
  client.connect();

  const Value reply =
      client.request(submit_run_request(blocker_spec(), /*watch=*/true));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const Value terminal = client.read_events();
  EXPECT_EQ(terminal.at("event").as_string(), "job_failed") << terminal.dump();
  ASSERT_TRUE(terminal.contains("error")) << terminal.dump();
  EXPECT_EQ(terminal.at("error").as_string(), "timeout");
}

TEST(ServeServer, QuickJobsFinishInsideGenerousTimeout) {
  // The deadline must not perturb jobs that finish in time: same result,
  // same terminal event as an undeadlined server.
  const std::string socket = unique_socket_path();
  ServerOptions options = options_with(socket, 1, 4);
  options.job_timeout = 60.0;
  ServerFixture fixture(options);
  Client client(socket);
  client.connect();

  const scenario::ScenarioSpec spec = quick_spec(16, 21);
  const Value reply = client.request(submit_run_request(spec, /*watch=*/true));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const Value terminal = client.read_events();
  ASSERT_EQ(terminal.at("event").as_string(), "job_done") << terminal.dump();
  const scenario::RunMetrics served = scenario::RunMetrics::from_json(
      terminal.at("result").at("metrics"));
  const scenario::RunMetrics direct =
      scenario::registry().run(spec.protocol, spec);
  EXPECT_EQ(served.to_json(/*include_timings=*/false).dump(),
            direct.to_json(/*include_timings=*/false).dump());
}

TEST(ServeServer, ClientCancelUnderDeadlineStaysJobCancelled) {
  // Cancel before the (generous) deadline: the unwind must report a clean
  // job_cancelled, proving the timed_out mark really distinguishes the
  // two paths.
  const std::string socket = unique_socket_path();
  ServerOptions options = options_with(socket, 1, 4);
  options.job_timeout = 60.0;
  ServerFixture fixture(options);
  Client client(socket);
  client.connect();

  const Value reply =
      client.request(submit_run_request(blocker_spec(), /*watch=*/false));
  ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
  const std::uint64_t job =
      static_cast<std::uint64_t>(reply.at("job").as_number());

  Client canceller(socket);
  canceller.connect();
  // Give the worker a moment to dequeue, then cancel and watch to the end.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Value cancel_reply = canceller.request(job_request("cancel", job));
  ASSERT_TRUE(cancel_reply.at("ok").as_bool()) << cancel_reply.dump();
  const Value watch_reply = client.request(job_request("watch", job));
  ASSERT_TRUE(watch_reply.at("ok").as_bool()) << watch_reply.dump();
  const Value terminal = client.read_events();
  EXPECT_EQ(terminal.at("event").as_string(), "job_cancelled")
      << terminal.dump();
}

TEST(ServeServer, StartRejectsOverlongSocketPaths) {
  ServerOptions options;
  options.socket_path = "/tmp/" + std::string(200, 'x') + ".sock";
  Server server(options);
  EXPECT_THROW(server.start(), PreconditionError);
}

/// This process's VmSize (mapped address space) in KiB, from
/// /proc/self/status.
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

// A daemon serving one short connection after another must not keep
// their threads: the listener joins each finished connection before it
// starts another, so the stack of every connection that has ended is
// unmapped (a kept one maps about 8.5 MiB, 300 of them about 2.5 GiB).
// The connections are strictly sequential, each sending `list` and
// closing after the reply. A warm-up first lets the thread-stack cache
// and the allocator's arenas settle; the bound still leaves room for a
// few more arenas (64 MiB of address space each), which a new thread
// may open while the previous one is still exiting.
TEST(ServeServer, SequentialConnectionsDoNotKeepTheirThreadStacks) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  const auto list_once = [&socket] {
    Client client(socket);
    client.connect();
    EXPECT_TRUE(client.request(op_request("list")).at("ok").as_bool());
  };
  for (int i = 0; i < 50; ++i) list_once();
  const std::uint64_t before = vm_size_kib();
  for (int i = 0; i < 300; ++i) list_once();
  const std::uint64_t after = vm_size_kib();
  EXPECT_LT(after, before + 256 * 1024)
      << "VmSize grew " << (after - before) / 1024 << " MiB over 300 connections";
}

// The daemon serves at most 64 connections at once, one thread each: the
// 65th reads one too_many_connections frame and is closed, and once a
// held client closes, its slot serves a new one.
TEST(ServeServer, ConnectionsOverTheCapGetAnErrorFrame) {
  const std::string socket = unique_socket_path();
  ServerFixture fixture(options_with(socket, 1, 4));
  std::vector<std::unique_ptr<Client>> held;
  for (int i = 0; i < 64; ++i) {
    held.push_back(std::make_unique<Client>(socket));
    held.back()->connect();
    // A reply shows that the listener gave this one a thread.
    ASSERT_TRUE(held.back()->request(op_request("status")).at("ok").as_bool()) << i;
  }
  Client extra(socket);
  extra.connect();
  const Value refused = extra.read_frame();
  ASSERT_FALSE(refused.at("ok").as_bool()) << refused.dump();
  EXPECT_EQ(refused.at("code").as_string(), "too_many_connections");
  EXPECT_THROW((void)extra.read_frame(), PreconditionError);  // closed

  // The freed slot is reaped at the first accept after its loop ends,
  // which may come after the next connect, so that one may be refused.
  held.pop_back();
  bool served = false;
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    Client next(socket);
    next.connect();
    try {
      served = next.request(op_request("list")).at("ok").as_bool();
    } catch (const PreconditionError&) {
      // Refused and closed before the request was sent.
    }
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
}

}  // namespace
}  // namespace poq::serve
