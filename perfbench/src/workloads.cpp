#include "workloads.hpp"

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench_lib.hpp"
#include "graph/topology.hpp"
#include "io.hpp"
#include "scenario/metrics.hpp"
#include "scenario/protocol.hpp"
#include "serve/protocol.hpp"
#include "sim/network_state.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using poq::scenario::KnobValue;
using poq::scenario::ScenarioSpec;
using poq::util::json::Value;

constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kJobTimeoutS = 60.0;
constexpr double kChildTimeoutS = 60.0;
constexpr int kSetupsBefore = 2;  // daemon set-ups before the window ...
constexpr int kSetupsAfter = 3;   // ... and after it; setup_s is their median
constexpr std::size_t kCheckEvery = 25;  // window jobs re-run by the output check
// Phases and protocols the workloads exercise (decohere needs decay, which
// neither workload enables; both still count it in phase_ms totals).
constexpr const char* kPhases[] = {"generate", "decide", "commit"};
constexpr const char* kProtocols[] = {"balancing", "hybrid", "gossip"};
// Exact counts a batch re-run must reproduce.
constexpr const char* kExactCounts[] = {"rounds", "satisfied", "swaps", "pairs_generated",
                                        "pairs_consumed"};

ScenarioSpec cell(const char* protocol, const char* topology, std::size_t nodes,
                  std::size_t pairs, std::size_t requests,
                  std::map<std::string, KnobValue> knobs = {}) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = topology;
  spec.nodes = nodes;
  spec.consumer_pairs = pairs;
  spec.requests = requests;
  spec.knobs = std::move(knobs);
  return spec;
}

double since_s(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

void add(Report& report, std::string name, double value, std::string unit) {
  report.metrics.push_back({std::move(name), value, std::move(unit)});
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double value_or(const std::map<std::string, double>& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

/// The tick struct's engine selector is set only while the struct has
/// one, so this probe keeps compiling if the selector is retired.
template <typename Tick>
void select_sharded_engine(Tick& tick) {
  if constexpr (requires(Tick& t) { t.mode = decltype(t.mode)::kSharded; }) {
    tick.mode = decltype(tick.mode)::kSharded;
  }
}

/// Times the benchmark's own calls into the graph, scenario and sim
/// layers for one spec: what a run builds before its first round.
void probe_layers(const ScenarioSpec& spec, Lane& lane, std::int64_t job) {
  const Lane::Scope probe = lane.open("bench.probe", job);
  {
    const Lane::Scope span = lane.open("graph.make_topology", job);
    poq::util::Rng rng(spec.seed);
    const poq::graph::Graph graph = poq::graph::make_topology(
        poq::scenario::parse_topology_family(spec.topology), spec.nodes, rng);
  }
  Lane::Scope instantiate = lane.open("scenario.instantiate", job);
  const poq::scenario::ScenarioInstance instance = poq::scenario::instantiate(spec);
  instantiate.close();
  const Lane::Scope init = lane.open("sim.network_state_init", job);
  poq::sim::TickConcurrency tick;
  select_sharded_engine(tick);
  tick.threads = static_cast<unsigned>(spec.knob_int("threads", 1));
  const poq::sim::NetworkState state(instance.graph, spec.seed, tick);
}

/// Span durations (ms) of `name`, keyed by job id.
std::map<std::int64_t, double> span_ms_by_job(const std::vector<const Lane*>& lanes,
                                              const std::string& name) {
  std::map<std::int64_t, double> by_job;
  for (const Lane* lane : lanes) {
    for (const Span& span : lane->spans()) {
      if (name == span.name) {
        by_job[span.job] += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
    }
  }
  return by_job;
}

/// One served job seen by the per-layer metrics.
struct RunSample {
  std::string protocol;
  double run_ms = 0.0;
  double setup_probe_ms = 0.0;  // scenario.instantiate + sim.network_state_init
  double nodes = 0.0;
  std::map<std::string, double> timings;  // phase_ms.* and the other reported timings
  std::map<std::string, double> scalars;
};

double phases_ms(const RunSample& sample) { return phase_ms_total(sample.timings); }

/// Exact counts over a fixed, seed-determined set of runs.
void add_core_counts(Report& report, const std::vector<RunSample>& exact) {
  double rounds = 0, swaps = 0, generated = 0, consumed = 0, memory = 0;
  std::size_t memory_runs = 0;
  for (const RunSample& run : exact) {
    rounds += value_or(run.scalars, "rounds");
    swaps += value_or(run.scalars, "swaps");
    generated += value_or(run.scalars, "pairs_generated");
    consumed += value_or(run.scalars, "pairs_consumed");
    if (run.scalars.count("memory_bytes_per_node") != 0) {
      memory += run.scalars.at("memory_bytes_per_node");
      ++memory_runs;
    }
  }
  add(report, "core.rounds", rounds, "count");
  add(report, "core.swaps", swaps, "count");
  add(report, "core.pairs_generated", generated, "count");
  add(report, "core.pairs_consumed", consumed, "count");
  add(report, "core.swaps_per_consumed", ratio(swaps, consumed), "swaps/pair");
  add(report, "sim.memory_bytes_per_node", ratio(memory, static_cast<double>(memory_runs)),
      "bytes/node");
}

/// Phase times, shares and per-unit costs over traced runs.
void add_sim_metrics(Report& report, const std::vector<RunSample>& runs) {
  const double n = static_cast<double>(runs.size());
  double run_total = 0, unphased = 0, accounted = 0, pairs = 0, swaps = 0, node_rounds = 0;
  std::map<std::string, double> phase_total;
  for (const RunSample& run : runs) {
    run_total += run.run_ms;
    unphased += run.run_ms - phases_ms(run);
    accounted += run.setup_probe_ms + phases_ms(run);
    pairs += value_or(run.scalars, "pairs_generated");
    swaps += value_or(run.scalars, "swaps");
    node_rounds += run.nodes * value_or(run.scalars, "rounds");
    for (const char* phase : kPhases) {
      phase_total[phase] += value_or(run.timings, std::string("phase_ms.") + phase);
    }
  }
  for (const char* phase : kPhases) {
    add(report, std::string("sim.") + phase + "_ms", ratio(phase_total[phase], n), "ms/run");
  }
  add(report, "sim.unphased_ms", ratio(unphased, n), "ms/run");
  for (const char* phase : kPhases) {
    add(report, std::string("sim.") + phase + "_share", ratio(phase_total[phase], run_total),
        "frac");
  }
  add(report, "sim.unphased_share", ratio(unphased, run_total), "frac");
  add(report, "sim.generate_ns_per_pair", ratio(phase_total["generate"] * 1e6, pairs), "ns/pair");
  add(report, "sim.commit_ns_per_swap", ratio(phase_total["commit"] * 1e6, swaps), "ns/swap");
  add(report, "sim.decide_ns_per_node_round", ratio(phase_total["decide"] * 1e6, node_rounds),
      "ns/node_round");
  add(report, "bench.wall_accounted_frac", ratio(accounted, run_total), "frac");

  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> by_protocol;
  for (const RunSample& run : runs) {
    overhead.push_back(run.run_ms - phases_ms(run));
    by_protocol[run.protocol].push_back(run.run_ms);
  }
  add(report, "scenario.job_overhead_ms_p50", median(overhead), "ms");
  for (const char* protocol : kProtocols) {
    add(report, std::string("scenario.run_ms_p50.") + protocol, median(by_protocol[protocol]),
        "ms");
  }
}

/// Layer-probe means from the traced lanes, per call.
void add_probe_metrics(Report& report, const std::map<std::string, SpanSummary>& spans) {
  const auto mean_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : ratio(it->second.total_ms, static_cast<double>(it->second.spans));
  };
  add(report, "graph.topology_ms", mean_ms("graph.make_topology"), "ms");
  add(report, "scenario.instantiate_ms", mean_ms("scenario.instantiate"), "ms");
  add(report, "sim.state_init_ms", mean_ms("sim.network_state_init"), "ms");
}

struct ServeSpanMetrics {
  double ack_ms_p50 = 0, queue_wait_ms_p50 = 0, queue_wait_ms_p99 = 0, run_ms_p50 = 0;
  double frame_bytes_per_job = 0, json_parse_us_per_kb = 0;
};

void add_serve_metrics(Report& report, const ServeSpanMetrics& serve, double rejected,
                       double timed_out, double failed, double trace_overhead) {
  add(report, "serve.ack_ms_p50", serve.ack_ms_p50, "ms");
  add(report, "serve.queue_wait_ms_p50", serve.queue_wait_ms_p50, "ms");
  add(report, "serve.queue_wait_ms_p99", serve.queue_wait_ms_p99, "ms");
  add(report, "serve.run_ms_p50", serve.run_ms_p50, "ms");
  add(report, "serve.frame_bytes_per_job", serve.frame_bytes_per_job, "bytes/job");
  add(report, "serve.rejected", rejected, "count");
  add(report, "serve.timed_out", timed_out, "count");
  add(report, "serve.failed", failed, "count");
  add(report, "util.json_parse_us_per_kb", serve.json_parse_us_per_kb, "us/KiB");
  add(report, "bench.trace_overhead_frac", trace_overhead, "frac");
}

std::string write_spec(const Options& options, const ScenarioSpec& spec,
                       const std::string& name) {
  const std::string path = options.work_dir + "/" + name;
  std::ofstream file(path);
  file << spec.to_json().dump(2) << '\n';
  if (!file) throw std::runtime_error("cannot write " + path);
  return path;
}

// --- serving ---------------------------------------------------------------------

struct JobRecord {
  std::size_t index = 0;
  std::size_t cell = 0;
  std::string protocol;
  double nodes = 0.0;
  double send_s = 0.0, done_s = 0.0;
  double cpu_ms = 0.0;  // the daemon's CPU time from submit to the terminal frame
  bool traced = false;
  bool done = false;
  std::string failure;  // "rejected", "timed_out", "failed: ...", or ""
  std::map<std::string, double> timings;
  std::map<std::string, double> scalars;
  std::string spec_json;    // checked jobs only: the submitted spec
  std::string result_json;  // checked jobs only: served metrics, timings stripped
};

struct DrivePlan {
  std::size_t first = 0;  // first job index
  std::size_t count = std::numeric_limits<std::size_t>::max();
  double stop_s = kInfinity;  // take no new job after this
  double trace_from_s = kInfinity;
  std::size_t keep_every = 1;  // keep results of every k-th job for the check
};

struct DriveResult {
  std::vector<JobRecord> records;
  std::unique_ptr<Lane> lane;  // spans of the traced jobs
  std::string error;           // why the client stopped early, or ""
  double daemon_cpu_s = 0.0;   // the daemon's CPU time over the whole drive
};

Value parse_frame(const std::string& frame, Lane& lane, std::int64_t job) {
  Lane::Scope span = lane.open("util.json_parse", job);
  span.set_count(frame.size() + 1);  // with its newline
  return Value::parse(frame);
}

/// Submit one job with watch=true and follow it to its terminal event.
void run_job(Connection& connection, const std::string& request, JobRecord& record,
             Lane& lane, Clock::time_point t0, bool keep, const Child& daemon) {
  const auto job = static_cast<std::int64_t>(record.index);
  const Lane::Scope job_span = lane.open("bench.job", job);
  const double cpu_start = daemon.cpu_s();
  record.send_s = since_s(t0);
  {
    const Lane::Scope span = lane.open("serve.submit", job);
    connection.send(request);
    const Value reply = parse_frame(connection.read_frame(kJobTimeoutS), lane, job);
    if (!reply.at("ok").as_bool()) {
      const std::string code = reply.contains("code") ? reply.at("code").as_string() : "";
      record.failure = code == "queue_full" ? "rejected" : "failed: " + reply.dump();
      return;
    }
  }
  Value terminal;
  // The job is done when its terminal frame arrives, before it is parsed.
  const auto next_event = [&] {
    const std::string frame = connection.read_frame(kJobTimeoutS);
    record.done_s = since_s(t0);
    record.cpu_ms = (daemon.cpu_s() - cpu_start) * 1e3;
    return parse_frame(frame, lane, job);
  };
  {
    const Lane::Scope wait = lane.open("serve.queue_wait", job);
    for (;;) {
      Value event = next_event();
      const std::string& name = event.at("event").as_string();
      if (name == "job_started") break;
      if (poq::serve::is_terminal_event(name)) {
        terminal = std::move(event);
        break;
      }
    }
  }
  if (terminal.is_null()) {
    const Lane::Scope run = lane.open("serve.run", job);
    for (;;) {
      Value event = next_event();
      if (poq::serve::is_terminal_event(event.at("event").as_string())) {
        terminal = std::move(event);
        break;
      }
    }
  }
  const std::string& name = terminal.at("event").as_string();
  if (name != "job_done") {
    const bool timeout = terminal.contains("error") && terminal.at("error").is_string() &&
                         terminal.at("error").as_string() == "timeout";
    record.failure = timeout ? "timed_out" : "failed: " + terminal.dump();
    return;
  }
  const poq::scenario::RunMetrics metrics =
      poq::scenario::RunMetrics::from_json(terminal.at("result").at("metrics"));
  for (const auto& [key, value] : metrics.timings()) record.timings[key] = value;
  for (const auto& [key, value] : metrics.scalars()) record.scalars[key] = value;
  if (keep) record.result_json = metrics.to_json(/*include_timings=*/false).dump();
  record.done = true;
}

/// Closed loop over one connection: the next job goes out when the
/// previous one is done.
DriveResult drive(const std::string& socket, JobStream& stream, const DrivePlan& plan,
                  Clock::time_point t0, const Child& daemon) {
  DriveResult result;
  result.lane = std::make_unique<Lane>(true, t0);
  Lane plain(false, t0);
  const double cpu_start = daemon.cpu_s();
  try {
    Connection connection(socket);
    for (std::size_t k = 0; k < plan.count && since_s(t0) < plan.stop_s; ++k) {
      JobRecord record;
      record.index = plan.first + k;
      const ScenarioSpec spec = stream.spec(record.index);
      record.cell = stream.cell(record.index);
      record.protocol = spec.protocol;
      record.nodes = static_cast<double>(spec.nodes);
      const bool keep = k % plan.keep_every == 0;
      if (keep) record.spec_json = spec.to_json().dump();
      Value request = Value::object();
      request.set("op", "submit_run");
      request.set("spec", spec.to_json());
      request.set("watch", true);
      const std::string frame = poq::serve::encode_frame(request);
      record.traced = since_s(t0) >= plan.trace_from_s;
      try {
        run_job(connection, frame, record, record.traced ? *result.lane : plain, t0, keep,
                daemon);
      } catch (const std::exception& error) {
        record.failure = std::string("failed: ") + error.what();
        result.records.push_back(std::move(record));
        throw;  // the connection's framing is lost; stop the client
      }
      result.records.push_back(std::move(record));
    }
  } catch (const std::exception& error) {
    result.error = error.what();
  }
  result.daemon_cpu_s = daemon.cpu_s() - cpu_start;
  return result;
}

std::unique_ptr<Child> start_daemon(const Options& options, const std::string& socket,
                                    const std::string& log) {
  auto daemon = std::make_unique<Child>(
      std::vector<std::string>{options.poqsim, "serve", "--socket", socket, "--workers",
                               std::to_string(kServeWorkers)},
      log);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    try {
      const Connection probe(socket);
      return daemon;
    } catch (const std::exception&) {
    }
    if (!daemon->running()) throw std::runtime_error("poqsim serve exited; see " + log);
    if (Clock::now() > deadline) throw std::runtime_error("poqsim serve never accepted");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void stop_daemon(Child& daemon, const std::string& socket) {
  try {
    Connection connection(socket);
    Value request = Value::object();
    request.set("op", "shutdown");
    connection.send(poq::serve::encode_frame(request));
    (void)connection.read_frame(10.0);
  } catch (const std::exception&) {
    // A daemon that cannot take the shutdown op is killed by wait().
  }
  daemon.wait(15.0);
}

/// The batch path: `poqsim run --spec` at threads = nproc must reproduce
/// the exact counts of a job served at threads = 1. Returns what differs,
/// or "" when nothing does.
std::string batch_mismatch(const Options& options, const JobRecord& record) {
  ScenarioSpec spec = ScenarioSpec::from_json(Value::parse(record.spec_json));
  spec.knobs["threads"] = static_cast<std::int64_t>(options.cores);
  const std::string path =
      write_spec(options, spec, "batch-" + std::to_string(::getpid()) + ".json");
  Child child({options.poqsim, "run", "--spec", path});
  const std::string out = child.read_stdout(kChildTimeoutS);
  const int exit_code = child.wait(10.0);
  if (exit_code != 0) return "poqsim run exited with " + std::to_string(exit_code);
  const std::map<std::string, double> batch = parse_metric_output(out);
  for (const char* key : kExactCounts) {
    if (batch.count(key) == 0 || record.scalars.count(key) == 0 ||
        batch.at(key) != record.scalars.at(key)) {
      return key;
    }
  }
  return "";
}

}  // namespace

std::vector<ScenarioSpec> converge_deck() {
  // Balancing-family runs to completion at the paper's scale, mostly
  // balancing so that decide dominates each job and serving overhead is
  // negligible.
  return {
      cell("balancing", "full-grid", 36, 35, 200),
      cell("balancing", "full-grid", 49, 35, 200),
      cell("balancing", "full-grid", 64, 35, 200),
      cell("balancing", "cycle", 25, 35, 200),
      cell("balancing", "cycle", 36, 35, 200),
      cell("balancing", "random-grid", 25, 35, 200),
      cell("balancing", "random-grid", 36, 35, 200),
      cell("hybrid", "full-grid", 49, 35, 200),
      cell("hybrid", "cycle", 49, 35, 200),
      cell("gossip", "full-grid", 36, 35, 200),
      cell("gossip", "cycle", 25, 35, 200),
      cell("gossip", "random-grid", 25, 35, 200),
  };
}

std::vector<ScenarioSpec> paper_deck() {
  // The paper evaluates up to n = 100. Larger graphs make each decide
  // dearer per node and round, and per-job serving costs vanish beside
  // runs of 40-500 ms. `threads` = 1 lets the output check re-run sampled
  // jobs at threads = nproc.
  const std::map<std::string, KnobValue> one_thread = {{"threads", std::int64_t{1}}};
  return {
      cell("balancing", "full-grid", 81, 35, 200, one_thread),
      cell("balancing", "full-grid", 100, 35, 200, one_thread),
      cell("balancing", "cycle", 49, 35, 200, one_thread),
      cell("hybrid", "full-grid", 81, 35, 200, one_thread),
      cell("hybrid", "full-grid", 100, 35, 200, one_thread),
      cell("hybrid", "cycle", 100, 35, 200, one_thread),
      cell("gossip", "full-grid", 81, 35, 200, one_thread),
      cell("gossip", "cycle", 49, 35, 200, one_thread),
  };
}

Report run_served(const Options& options, const std::vector<ScenarioSpec>& deck,
                  double tail_percentile) {
  Report report;
  JobStream stream(deck, options.seed);
  const std::size_t warmup = deck.size();
  const std::string prefix = options.work_dir + "/serve-" + std::to_string(::getpid());

  // Set-up: spawn the daemon, wait until its socket accepts, then run the
  // warm-up prefix of the job stream (one whole deck). Its cost is the
  // daemon's CPU time from exec to the end of the warm-up, and its memory
  // the daemon's peak RSS by then: a fixed amount of work, where the
  // window's job count (and so the daemon's job table) follows the host's
  // speed. It is repeated, before and after the window so that the samples
  // are spread over the run, and both metrics are medians; the last set-up
  // before the window serves it.
  std::vector<double> setup_s, rss_mib;
  int setups = 0;
  const auto set_up = [&](std::string& socket, DriveResult* warm_out) {
    socket = prefix + "-" + std::to_string(setups) + ".sock";
    std::unique_ptr<Child> daemon =
        start_daemon(options, socket, prefix + "-" + std::to_string(setups) + ".log");
    ++setups;
    DrivePlan plan;
    plan.count = warmup;
    DriveResult warm = drive(socket, stream, plan, Clock::now(), *daemon);
    if (!warm.error.empty()) throw std::runtime_error("warm-up failed: " + warm.error);
    setup_s.push_back(daemon->cpu_s());
    rss_mib.push_back(daemon->peak_rss_mb());
    if (warm_out != nullptr) *warm_out = std::move(warm);
    return daemon;
  };
  std::string socket;
  for (int k = 1; k < kSetupsBefore; ++k) stop_daemon(*set_up(socket, nullptr), socket);
  DriveResult warm;
  std::unique_ptr<Child> daemon = set_up(socket, &warm);

  // Timed window, closed loop with one job in flight.
  DrivePlan plan;
  plan.first = warmup;
  plan.stop_s = options.seconds;
  plan.trace_from_s = options.trace ? options.seconds / 2 : kInfinity;
  plan.keep_every = kCheckEvery;
  const Clock::time_point t0 = Clock::now();
  DriveResult window = drive(socket, stream, plan, t0, *daemon);
  const double window_s = since_s(t0);
  stop_daemon(*daemon, socket);
  daemon.reset();
  for (int k = 0; k < kSetupsAfter; ++k) stop_daemon(*set_up(socket, nullptr), socket);

  // Accounting and the output check, outside the window: sampled served
  // results must equal a direct registry run of the same spec, and jobs
  // that set `threads` must also match a batch run at threads = nproc.
  report.attempted = window.records.size() + warm.records.size();
  std::uint64_t rejected = 0, timed_out = 0, failed = 0;
  for (const JobRecord& record : window.records) {
    if (record.failure == "rejected") ++rejected;
    else if (record.failure == "timed_out") ++timed_out;
    else if (!record.done) ++failed;
  }
  std::uint64_t mismatches = 0;
  std::size_t batch_checked = 0;
  std::vector<const JobRecord*> sample;
  for (const JobRecord& record : warm.records) sample.push_back(&record);
  for (const JobRecord& record : window.records) {
    if (!record.spec_json.empty() && record.done) sample.push_back(&record);
  }
  for (const JobRecord* record : sample) {
    if (!record->done) {
      ++mismatches;
      continue;
    }
    const ScenarioSpec spec = ScenarioSpec::from_json(Value::parse(record->spec_json));
    // The served result crossed the wire once (to_json, dump, parse,
    // from_json); give the direct result the same trip so summary
    // statistics compare bit for bit.
    const poq::scenario::RunMetrics direct_metrics =
        poq::scenario::registry().run(spec.protocol, spec);
    const std::string direct =
        poq::scenario::RunMetrics::from_json(Value::parse(direct_metrics.to_json().dump()))
            .to_json(/*include_timings=*/false)
            .dump();
    std::string differs = direct == record->result_json ? "" : "metrics";
    if (differs.empty() && spec.has_knob("threads")) {
      ++batch_checked;
      differs = batch_mismatch(options, *record);
    }
    if (!differs.empty()) {
      ++mismatches;
      report.notes.push_back("job " + std::to_string(record->index) +
                             ": served result differs from a direct run (" + differs + ")");
    }
  }
  report.failed = rejected + timed_out + failed + mismatches;
  report.correct = mismatches == 0 && window.error.empty() && report.failed == 0;
  if (!window.error.empty()) report.notes.push_back("client: " + window.error);

  std::vector<double> cpu_ms, plain_wall_ms, traced_wall_ms;
  for (const JobRecord& record : window.records) {
    if (!record.done) continue;
    cpu_ms.push_back(record.cpu_ms);
    (record.traced ? traced_wall_ms : plain_wall_ms)
        .push_back((record.done_s - record.send_s) * 1e3);
  }
  const double done = static_cast<double>(cpu_ms.size());
  report.notes.push_back(
      options.workload + ": " + std::to_string(cpu_ms.size()) + " jobs in " +
      std::to_string(window_s) + " s (" + std::to_string(ratio(done, window_s)) +
      " jobs/s wall; daemon CPU " + std::to_string(window.daemon_cpu_s) + " s), " +
      std::to_string(sample.size()) + " checked against direct runs (" +
      std::to_string(batch_checked) + " also as batch runs at threads=" +
      std::to_string(options.cores) + "), fail_frac " +
      std::to_string(ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted))));

  if (!options.trace) {
    add(report, "setup_s", median(setup_s), "s");
    add(report, "jobs_per_cpu_s", ratio(done, window.daemon_cpu_s), "1/s");
    add(report, "job_cpu_ms_p50", median(cpu_ms), "ms");
    add(report, "job_cpu_ms_tail", percentile(cpu_ms, tail_percentile), "ms");
    add(report, "peak_rss_mib", median(rss_mib), "MiB");
    report.notes.push_back("times are the daemon's CPU time; job_cpu_ms runs from submit "
                           "to job_done; tail = " + percentile_label(tail_percentile));
    return report;
  }

  // Per-layer metrics from the traced half.
  Lane probes(true, t0);
  std::map<std::size_t, std::int64_t> probe_job;  // deck cell -> probed job
  for (std::size_t i = warmup; probe_job.size() < stream.deck_size(); ++i) {
    const std::size_t cell_index = stream.cell(i);
    if (probe_job.count(cell_index) != 0) continue;
    probe_job[cell_index] = static_cast<std::int64_t>(i);
    probe_layers(stream.spec(i), probes, static_cast<std::int64_t>(i));
  }
  const std::vector<const Lane*> lanes = {window.lane.get(), &probes};
  const std::map<std::string, SpanSummary> spans = summarize_spans(lanes);
  add_probe_metrics(report, spans);
  const std::map<std::int64_t, double> instantiate_ms =
      span_ms_by_job({&probes}, "scenario.instantiate");
  const std::map<std::int64_t, double> init_ms =
      span_ms_by_job({&probes}, "sim.network_state_init");
  const std::map<std::int64_t, double> run_ms =
      span_ms_by_job({window.lane.get()}, "serve.run");

  std::vector<RunSample> samples;
  std::size_t traced_jobs = 0;
  for (const JobRecord& record : window.records) {
    if (!record.traced || !record.done) continue;
    ++traced_jobs;
    RunSample sample;
    sample.protocol = record.protocol;
    sample.run_ms = run_ms.at(static_cast<std::int64_t>(record.index));
    const std::int64_t probed = probe_job.at(record.cell);
    sample.setup_probe_ms = instantiate_ms.at(probed) + init_ms.at(probed);
    sample.nodes = record.nodes;
    sample.timings = record.timings;
    sample.scalars = record.scalars;
    samples.push_back(std::move(sample));
  }
  add_sim_metrics(report, samples);
  std::vector<RunSample> exact;
  for (const JobRecord& record : warm.records) {
    RunSample sample;
    sample.scalars = record.scalars;
    exact.push_back(std::move(sample));
  }
  add_core_counts(report, exact);

  const auto durations = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::vector<double>{} : it->second.durations_ms;
  };
  ServeSpanMetrics serve;
  serve.ack_ms_p50 = median(durations("serve.submit"));
  serve.queue_wait_ms_p50 = median(durations("serve.queue_wait"));
  serve.queue_wait_ms_p99 = percentile(durations("serve.queue_wait"), 99.0);
  serve.run_ms_p50 = median(durations("serve.run"));
  if (const auto it = spans.find("util.json_parse"); it != spans.end()) {
    serve.frame_bytes_per_job =
        ratio(static_cast<double>(it->second.count), static_cast<double>(traced_jobs));
    serve.json_parse_us_per_kb =
        ratio(it->second.self_ms * 1e3, static_cast<double>(it->second.count) / 1024.0);
  }
  add_serve_metrics(report, serve, static_cast<double>(rejected),
                    static_cast<double>(timed_out), static_cast<double>(failed),
                    ratio(median(traced_wall_ms), median(plain_wall_ms)) - 1.0);
  const std::string path = options.work_dir + "/spans-" + options.workload + "-s" +
                           std::to_string(options.seed) + ".ndjson";
  write_spans(path, lanes);
  report.notes.push_back("spans written to " + path);
  return report;
}

}  // namespace perfbench
