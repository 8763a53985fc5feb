// Built-in protocol adapters: the bridge between the unified scenario API
// and the per-family simulators in core/. Each protocol is one Adapter:
// a knob schema (which doubles as the poqsim CLI surface) and a run body
// that maps the family's Config/Result structs onto RunMetrics. All
// per-protocol Config/Result plumbing in the repo lives here and nowhere
// else.
//
// Conventions shared by the adapters:
//   * the KnobSpec table in register_builtin_protocols is the only place
//     a knob's name, type, default, int range and help are written: the
//     registry checks a spec's knob types and ranges against it before
//     run, and the run body reads every knob through Knobs, which falls
//     back to the declared default;
//   * config.seed = spec.seed, topology from Rng(seed), workload from
//     fork(42) — via scenario::instantiate, matching the historical CLI
//     seeding so numbers are comparable across the redesign;
//   * round-based runs publish label "completed" (yes/no) plus scalar
//     "starved" (1 when no satisfied request was costed), and overhead
//     metrics only when the denominator is positive, so sweep aggregation
//     reproduces the benches' starved-cell semantics.
#include <limits>
#include <memory>

#include "core/async_routing.hpp"
#include "core/balancing_sim.hpp"
#include "core/distributed.hpp"
#include "core/fidelity_sim.hpp"
#include "core/gossip.hpp"
#include "core/hybrid.hpp"
#include "core/lp_formulation.hpp"
#include "core/planned_path.hpp"
#include "scenario/protocol.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::scenario {

namespace {

/// Upper bound of every int knob narrowed to a uint32 config field.
constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/// `own` followed by the knobs every protocol shares: `threads` on an
/// engine, then the fault-injection knobs.
std::vector<KnobSpec> with_shared_knobs(std::vector<KnobSpec> own,
                                        bool engine = true) {
  // Results are bit-identical for every threads setting, so parallelism
  // is purely a performance decision. lp has no engine, so it does not
  // declare the knob and the registry rejects it outright.
  if (engine) {
    own.push_back({"threads", KnobType::kInt, std::int64_t{1},
                   "intra-run worker threads (0 = hardware; never changes results)",
                   0, 4096});
  }
  // lp scales capacities by expected availability instead of simulating
  // churn. Scripted events travel as the spec's `faults` array, not a
  // knob: they are structured (round, kind, entity) rather than a scalar.
  own.insert(own.end(), {
      {"fault-node-mtbf", KnobType::kDouble, 0.0,
       "mean rounds between crashes per node (0 = no stochastic node "
       "faults); crash purges the node's stored pairs"},
      {"fault-node-mttr", KnobType::kDouble, 10.0,
       "mean rounds to recover a crashed node"},
      {"fault-link-mtbf", KnobType::kDouble, 0.0,
       "mean rounds between failures per generation edge (0 = none); a "
       "down link halts generation, stored pairs survive"},
      {"fault-link-mttr", KnobType::kDouble, 10.0,
       "mean rounds to recover a failed link"},
      {"fault-rate-degradation", KnobType::kDouble, 0.0,
       "per-round generation-rate degradation depth in [0, 1)"},
  });
  return own;
}

/// One run's knob reads: the spec's value, or else the default the
/// schema declares. The registry has checked the spec's types and ranges
/// against the same schema, so a ranged int narrows safely. Reading a
/// name the schema does not declare is an adapter bug and throws.
class Knobs {
 public:
  Knobs(const std::vector<KnobSpec>& schema, const ScenarioSpec& spec)
      : schema_(schema), spec_(spec) {}

  bool flag(const std::string& name) const {
    return spec_.knob_bool(name, fallback<bool>(name));
  }
  std::int64_t integer(const std::string& name) const {
    return spec_.knob_int(name, fallback<std::int64_t>(name));
  }
  /// An int knob declared within [0, kU32Max].
  std::uint32_t u32(const std::string& name) const {
    return static_cast<std::uint32_t>(integer(name));
  }
  double real(const std::string& name) const {
    return spec_.knob_double(name, fallback<double>(name));
  }
  std::string text(const std::string& name) const {
    return spec_.knob_string(name, fallback<std::string>(name));
  }

 private:
  template <typename T>
  const T& fallback(const std::string& name) const {
    for (const KnobSpec& knob : schema_) {
      if (knob.name == name) return std::get<T>(knob.default_value);
    }
    throw InvariantError(util::str_cat("adapter reads undeclared knob '", name, "'"));
  }

  const std::vector<KnobSpec>& schema_;
  const ScenarioSpec& spec_;
};

/// A built-in protocol: name, description and knob schema are fixed at
/// registration, and the run body reads its knobs through the schema.
class Adapter final : public Protocol {
 public:
  using Body = RunMetrics (*)(const Knobs& knob, const ScenarioSpec& spec);

  Adapter(std::string name, std::string description,
          std::vector<KnobSpec> schema, Body body)
      : name_(std::move(name)),
        description_(std::move(description)),
        schema_(std::move(schema)),
        body_(body) {}
  std::string name() const override { return name_; }
  std::string describe() const override { return description_; }
  std::vector<KnobSpec> knobs() const override { return schema_; }
  RunMetrics run(const ScenarioSpec& spec) const override {
    return body_(Knobs(schema_, spec), spec);
  }

 private:
  std::string name_;
  std::string description_;
  std::vector<KnobSpec> schema_;
  Body body_;
};

sim::FaultConfig fault_config(const Knobs& knob, const ScenarioSpec& spec) {
  sim::FaultConfig config;
  config.node_mtbf = knob.real("fault-node-mtbf");
  config.node_mttr = knob.real("fault-node-mttr");
  config.link_mtbf = knob.real("fault-link-mtbf");
  config.link_mttr = knob.real("fault-link-mttr");
  config.rate_degradation = knob.real("fault-rate-degradation");
  config.script = spec.faults;
  // Checked whatever enabled() says: a negative or NaN knob would
  // otherwise read as "faults off" and run silently.
  config.validate();
  return config;
}

/// Resilience metrics, emitted only when faults are engaged so fault-free
/// runs (and every committed baseline) keep their historical metric set
/// byte for byte — the same conditional-emission discipline as the
/// streaming counters.
void add_fault_metrics(RunMetrics& metrics, const sim::FaultConfig& config,
                       const sim::FaultStats& faults) {
  if (!config.enabled()) return;
  metrics.set_scalar("availability", faults.availability());
  metrics.set_scalar("fault_rounds_degraded",
                     static_cast<double>(faults.degraded_rounds));
  metrics.set_scalar("delivered_under_fault",
                     static_cast<double>(faults.delivered_under_fault));
  metrics.set_scalar("node_crashes", static_cast<double>(faults.node_crashes));
  metrics.set_scalar("link_downs", static_cast<double>(faults.link_downs));
  metrics.set_scalar("pairs_purged_by_faults",
                     static_cast<double>(faults.pairs_purged_by_faults));
  metrics.set_stats("time_to_recover", faults.time_to_recover);
}

/// Surface the phase-kernel wall-clock (RunMetrics timings; excluded from
/// every determinism/regression comparison, like wall_ms).
void add_phase_timings(RunMetrics& metrics, const sim::PhaseTimers& phase) {
  metrics.set_timing("phase_ms.generate", static_cast<double>(phase.generate_ns) / 1e6);
  metrics.set_timing("phase_ms.decide", static_cast<double>(phase.decide_ns) / 1e6);
  metrics.set_timing("phase_ms.commit", static_cast<double>(phase.commit_ns) / 1e6);
  metrics.set_timing("phase_ms.decohere", static_cast<double>(phase.decohere_ns) / 1e6);
  // Chunk-scheduler load balance (max-over-mean chunk wall-clock): a
  // timing like the phase_ms entries — observability only, never part of
  // a --check comparison. Phases that never dispatched chunks report
  // nothing.
  const auto add_imbalance = [&](const char* name,
                                 const sim::ChunkLoad& load) {
    if (load.chunks > 0) metrics.set_timing(name, load.imbalance());
  };
  add_imbalance("shard_imbalance.generate", phase.generate_load);
  add_imbalance("shard_imbalance.decide", phase.decide_load);
  add_imbalance("shard_imbalance.decohere", phase.decohere_load);
}

void add_overhead_metrics(RunMetrics& metrics, double swaps,
                          double denominator_paper, double denominator_exact) {
  metrics.set_scalar("starved", denominator_paper > 0.0 ? 0.0 : 1.0);
  if (denominator_paper > 0.0) {
    metrics.set_scalar("overhead_paper", swaps / denominator_paper);
  }
  if (denominator_exact > 0.0) {
    metrics.set_scalar("overhead_exact", swaps / denominator_exact);
  }
}

void add_balancing_metrics(RunMetrics& metrics, const core::BalancingResult& result) {
  metrics.set_label("completed", result.completed ? "yes" : "no");
  metrics.set_scalar("rounds", static_cast<double>(result.rounds));
  metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
  metrics.set_scalar("swaps", static_cast<double>(result.swaps_performed));
  metrics.set_scalar("pairs_generated", static_cast<double>(result.pairs_generated));
  metrics.set_scalar("pairs_consumed", static_cast<double>(result.pairs_consumed));
  add_overhead_metrics(metrics, static_cast<double>(result.swaps_performed),
                       result.denominator_paper, result.denominator_exact);
  metrics.set_scalar("mean_head_wait", result.head_wait_rounds.mean());
  metrics.set_stats("head_wait_rounds", result.head_wait_rounds);
  // Streaming-mode counters only when requests streamed: fixed-sequence
  // runs keep their historical metric set (and committed baselines)
  // bit-identical.
  if (result.requests_arrived > 0 || result.backlog > 0) {
    metrics.set_scalar("arrivals", static_cast<double>(result.requests_arrived));
    metrics.set_scalar("backlog", static_cast<double>(result.backlog));
  }
  add_phase_timings(metrics, result.phase);
}

/// Resilience metrics of the balancing family (balancing, hybrid,
/// gossip): the shared set plus the backlog high-water mark, which only
/// this family tracks (streaming consumption is where churn shows up as
/// queue growth).
void add_balancing_fault_metrics(RunMetrics& metrics,
                                 const sim::FaultConfig& config,
                                 const core::BalancingResult& result) {
  add_fault_metrics(metrics, config, result.faults);
  if (config.enabled()) {
    metrics.set_scalar("backlog_peak", static_cast<double>(result.backlog_peak));
  }
}

core::BalancingConfig balancing_config(const Knobs& knob,
                                       const ScenarioSpec& spec) {
  core::BalancingConfig config;
  config.distillation = knob.real("distillation");
  config.max_rounds = knob.u32("max-rounds");
  config.swaps_per_node_per_round = knob.u32("swap-rate");
  config.generation_per_edge_per_round = knob.real("generation-rate");
  config.seed = spec.seed;
  const std::int64_t detour_slack = knob.integer("detour-slack");
  if (detour_slack != -1) {  // -1 = unrestricted
    config.policy.detour_slack = static_cast<std::uint32_t>(detour_slack);
  }
  config.arrival_rate = knob.real("arrival-rate");
  config.consumer_pool = static_cast<std::uint64_t>(knob.integer("consumer-pool"));
  config.max_requests = static_cast<std::uint64_t>(knob.integer("max-requests"));
  config.tick.threads = knob.u32("threads");
  config.faults = fault_config(knob, spec);
  return config;
}

/// The balancing family's schema: the round-based core's knobs, the
/// shared knobs, then `extra` (hybrid's and gossip's own).
std::vector<KnobSpec> balancing_schema(std::vector<KnobSpec> extra = {}) {
  std::vector<KnobSpec> knobs = with_shared_knobs({
      {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
      {"max-rounds", KnobType::kInt, std::int64_t{50000}, "round budget", 0,
       kU32Max},
      {"swap-rate", KnobType::kInt, std::int64_t{1}, "swaps per node per round",
       0, kU32Max},
      {"generation-rate", KnobType::kDouble, 1.0, "pairs per edge per round"},
      {"detour-slack", KnobType::kInt, std::int64_t{-1},
       "extra hops the swap policy tolerates (-1 = unrestricted)", -1, kU32Max},
      {"arrival-rate", KnobType::kDouble, 0.0,
       "streaming workload: Poisson request arrivals per round "
       "(0 = fixed request sequence)"},
      {"consumer-pool", KnobType::kInt, std::int64_t{0},
       "virtual consumer-pair pool for streaming arrivals (0 = C(n,2); "
       "pairs are derived lazily, the pool is never materialized)", 0},
      {"max-requests", KnobType::kInt, std::int64_t{0},
       "streaming stop: finish after satisfying this many requests "
       "(0 = run until max-rounds)", 0},
  });
  knobs.insert(knobs.end(), extra.begin(), extra.end());
  return knobs;
}

RunMetrics run_balancing(const Knobs& knob, const ScenarioSpec& spec) {
  const ScenarioInstance instance = instantiate(spec);
  const core::BalancingConfig config = balancing_config(knob, spec);
  core::BalancingSimulation simulation(instance.graph, instance.workload,
                                       config);
  const core::BalancingResult result = simulation.run();
  RunMetrics metrics;
  add_balancing_metrics(metrics, result);
  add_balancing_fault_metrics(metrics, config.faults, result);
  // Streaming (megascale) runs report the deterministic logical memory
  // footprint; the scalar is identical for every threads
  // setting, so the BENCH_megascale gate holds it to
  // 1e-9. Fixed-sequence runs keep their historical metric set.
  if (simulation.streaming()) {
    metrics.set_scalar("memory_bytes_per_node",
                       static_cast<double>(simulation.memory_bytes()) /
                           static_cast<double>(instance.graph.node_count()));
  }
  return metrics;
}

RunMetrics run_planned(const Knobs& knob, const ScenarioSpec& spec) {
  core::PlannedPathConfig config;
  config.distillation = knob.real("distillation");
  config.window = knob.u32("window");
  config.max_rounds = knob.u32("max-rounds");
  config.seed = spec.seed;
  config.tick.threads = knob.u32("threads");
  config.faults = fault_config(knob, spec);
  const std::string mode = knob.text("mode");
  if (mode == "connectionless") {
    config.mode = core::PlannedPathMode::kConnectionless;
  } else if (mode == "oriented") {
    config.mode = core::PlannedPathMode::kConnectionOriented;
  } else {
    throw PreconditionError(util::str_cat(
        "planned: knob 'mode' must be oriented or connectionless, got '", mode,
        "'"));
  }
  const ScenarioInstance instance = instantiate(spec);
  const core::PlannedPathResult result =
      core::run_planned_path(instance.graph, instance.workload, config);
  RunMetrics metrics;
  metrics.set_label("completed", result.completed ? "yes" : "no");
  metrics.set_label("mode", mode);
  metrics.set_scalar("rounds", static_cast<double>(result.rounds));
  metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
  metrics.set_scalar("swaps", result.swaps_performed);
  metrics.set_scalar("pairs_generated", static_cast<double>(result.pairs_generated));
  add_overhead_metrics(metrics, result.swaps_performed, result.denominator_paper,
                       result.denominator_exact);
  metrics.set_scalar("mean_service", result.service_rounds.mean());
  metrics.set_stats("service_rounds", result.service_rounds);
  add_fault_metrics(metrics, config.faults, result.faults);
  return metrics;
}

RunMetrics run_hybrid(const Knobs& knob, const ScenarioSpec& spec) {
  core::HybridConfig config;
  config.base = balancing_config(knob, spec);
  config.max_assist_hops = knob.u32("max-assist-hops");
  const ScenarioInstance instance = instantiate(spec);
  const core::HybridResult result =
      core::run_hybrid(instance.graph, instance.workload, config);
  RunMetrics metrics;
  add_balancing_metrics(metrics, result.base);
  add_balancing_fault_metrics(metrics, config.base.faults, result.base);
  metrics.set_scalar("assists_attempted",
                     static_cast<double>(result.assists_attempted));
  metrics.set_scalar("assists_succeeded",
                     static_cast<double>(result.assists_succeeded));
  metrics.set_scalar("assist_swaps", result.assist_swaps);
  metrics.set_timing("phase_ms.assist",
                     static_cast<double>(result.base.phase.assist_ns) / 1e6);
  return metrics;
}

RunMetrics run_gossip(const Knobs& knob, const ScenarioSpec& spec) {
  core::GossipConfig config;
  config.base = balancing_config(knob, spec);
  config.fanout = knob.u32("fanout");
  config.optimistic_peer = knob.flag("optimistic-peer");
  config.latency_per_hop = knob.real("latency");
  const ScenarioInstance instance = instantiate(spec);
  const core::GossipResult result =
      core::run_gossip(instance.graph, instance.workload, config);
  RunMetrics metrics;
  add_balancing_metrics(metrics, result.base);
  add_balancing_fault_metrics(metrics, config.base.faults, result.base);
  metrics.set_scalar("view_age", result.mean_view_age);
  metrics.set_scalar("control_messages", static_cast<double>(result.control_messages));
  metrics.set_scalar("control_bytes", static_cast<double>(result.control_bytes));
  metrics.set_timing("phase_ms.exchange",
                     static_cast<double>(result.base.phase.exchange_ns) / 1e6);
  return metrics;
}

RunMetrics run_distributed(const Knobs& knob, const ScenarioSpec& spec) {
  core::DistributedConfig config;
  config.latency_per_hop = knob.real("latency");
  config.duration = knob.real("duration");
  config.report_rate = knob.real("report-rate");
  config.generation_rate = knob.real("generation-rate");
  config.scan_rate = knob.real("scan-rate");
  config.dt = knob.real("dt");
  config.seed = spec.seed;
  config.tick.threads = knob.u32("threads");
  config.faults = fault_config(knob, spec);
  const ScenarioInstance instance = instantiate(spec);
  const core::DistributedResult result =
      core::run_distributed(instance.graph, instance.workload, config);
  RunMetrics metrics;
  metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
  metrics.set_scalar("swaps", static_cast<double>(result.swaps));
  metrics.set_scalar("stale_swap_fraction", result.stale_swap_fraction());
  metrics.set_scalar("conflict_fraction", result.conflict_fraction());
  metrics.set_scalar("view_age", result.decision_view_age.mean());
  metrics.set_scalar("control_messages", static_cast<double>(result.control_messages));
  metrics.set_scalar("control_bytes", static_cast<double>(result.control_bytes));
  metrics.set_scalar("pairs_generated", static_cast<double>(result.pairs_generated));
  if (result.request_latency.count() > 0) {
    metrics.set_scalar("mean_request_latency", result.request_latency.mean());
  }
  metrics.set_stats("request_latency", result.request_latency);
  metrics.set_stats("decision_view_age", result.decision_view_age);
  add_fault_metrics(metrics, config.faults, result.faults);
  return metrics;
}

RunMetrics run_async_routing(const Knobs& knob, const ScenarioSpec& spec) {
  core::AsyncRoutingConfig config;
  config.arrival_rate = knob.real("arrival-rate");
  config.generation_rate = knob.real("generation-rate");
  config.latency_per_hop = knob.real("latency");
  config.timeout = knob.real("timeout");
  config.duration = knob.real("duration");
  config.dt = knob.real("dt");
  config.seed = spec.seed;
  config.tick.threads = knob.u32("threads");
  config.faults = fault_config(knob, spec);
  const ScenarioInstance instance = instantiate(spec);
  const core::AsyncRoutingResult result =
      core::run_async_routing(instance.graph, instance.workload, config);
  RunMetrics metrics;
  metrics.set_scalar("arrived", static_cast<double>(result.requests_arrived));
  metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
  metrics.set_scalar("dropped", static_cast<double>(result.requests_dropped));
  metrics.set_scalar("satisfied_fraction", result.satisfied_fraction());
  metrics.set_scalar("drop_fraction", result.drop_fraction());
  metrics.set_scalar("swaps", static_cast<double>(result.swaps));
  metrics.set_scalar("pairs_generated", static_cast<double>(result.pairs_generated));
  metrics.set_scalar("pairs_consumed", static_cast<double>(result.pairs_consumed));
  metrics.set_scalar("control_messages", static_cast<double>(result.control_messages));
  if (result.request_latency.count() > 0) {
    metrics.set_scalar("mean_request_latency", result.request_latency.mean());
  }
  metrics.set_stats("request_latency", result.request_latency);
  metrics.set_stats("request_hops", result.request_hops);
  if (result.apply_load.chunks > 0) {
    metrics.set_timing("shard_imbalance.apply", result.apply_load.imbalance());
  }
  add_fault_metrics(metrics, config.faults, result.faults);
  return metrics;
}

RunMetrics run_fidelity(const Knobs& knob, const ScenarioSpec& spec) {
  core::FidelitySimConfig config;
  config.raw_fidelity = knob.real("raw-fidelity");
  config.app_fidelity = knob.real("app-fidelity");
  config.usable_fidelity = knob.real("usable-fidelity");
  config.memory_time_constant = knob.real("memory-T");
  config.duration = knob.real("duration");
  config.distillation_enabled = knob.flag("distill");
  config.seed = spec.seed;
  config.tick.threads = knob.u32("threads");
  config.faults = fault_config(knob, spec);
  const std::string pairing = knob.text("pairing");
  if (pairing == "oldest") {
    config.policy = core::PairingPolicy::kOldest;
  } else if (pairing == "freshest") {
    config.policy = core::PairingPolicy::kFreshest;
  } else {
    throw PreconditionError(util::str_cat(
        "fidelity: knob 'pairing' must be freshest or oldest, got '", pairing,
        "'"));
  }
  const ScenarioInstance instance = instantiate(spec);
  const core::FidelitySimResult result =
      core::run_fidelity_sim(instance.graph, instance.workload, config);
  RunMetrics metrics;
  metrics.set_label("pairing", pairing);
  metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
  metrics.set_scalar("swaps", static_cast<double>(result.swaps));
  metrics.set_scalar("distills", static_cast<double>(result.distillations));
  metrics.set_scalar("distill_failures",
                     static_cast<double>(result.distillation_failures));
  metrics.set_scalar("pairs_generated", static_cast<double>(result.pairs_generated));
  metrics.set_scalar("pairs_decayed", static_cast<double>(result.pairs_decayed));
  metrics.set_scalar("L_realized", result.realized_survival());
  metrics.set_scalar("D_realized", result.realized_distillation_overhead());
  if (result.consumed_fidelity.count() > 0) {
    metrics.set_scalar("mean_consumed_F", result.consumed_fidelity.mean());
  }
  if (result.storage_age_at_use.count() > 0) {
    metrics.set_scalar("mean_storage_age", result.storage_age_at_use.mean());
  }
  if (result.request_latency.count() > 0) {
    metrics.set_scalar("mean_request_latency", result.request_latency.mean());
  }
  metrics.set_stats("consumed_fidelity", result.consumed_fidelity);
  metrics.set_stats("request_latency", result.request_latency);
  metrics.set_stats("storage_age_at_use", result.storage_age_at_use);
  add_phase_timings(metrics, result.phase);
  add_fault_metrics(metrics, config.faults, result.faults);
  return metrics;
}

RunMetrics run_lp(const Knobs& knob, const ScenarioSpec& spec) {
  if (!spec.faults.empty()) {
    throw PreconditionError(
        "lp: scripted fault events are not supported — the steady-state "
        "LP has no rounds to apply them at; use the fault-*-mtbf/mttr "
        "knobs, which scale capacities by expected availability");
  }
  const sim::FaultConfig faults = fault_config(knob, spec);
  // Steady-state treatment of churn: each entity is up with probability
  // mtbf/(mtbf+mttr) (the alternating-renewal limit), so an edge's
  // expected generation capacity is gamma scaled by the link's
  // availability, both endpoints' availability, and the mean rate
  // factor 1 - degradation/2 (U is uniform on [0,1)).
  const double node_avail =
      faults.node_mtbf > 0.0
          ? faults.node_mtbf / (faults.node_mtbf + faults.node_mttr)
          : 1.0;
  const double link_avail =
      faults.link_mtbf > 0.0
          ? faults.link_mtbf / (faults.link_mtbf + faults.link_mttr)
          : 1.0;
  const double capacity_factor = link_avail * node_avail * node_avail *
                                 (1.0 - faults.rate_degradation / 2.0);
  const ScenarioInstance instance = instantiate(spec);
  core::SteadyStateSpec lp_spec;
  lp_spec.node_count = instance.graph.node_count();
  const double gamma = knob.real("gamma") * capacity_factor;
  for (const graph::Edge& edge : instance.graph.edges()) {
    lp_spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), gamma});
  }
  const double kappa = knob.real("kappa");
  for (const core::NodePair& pair : instance.workload.pairs) {
    lp_spec.demand.push_back(core::RatedPair{pair, kappa});
  }
  lp_spec.distillation = knob.real("distillation");
  lp_spec.survival = knob.real("survival");
  lp_spec.qec_overhead = knob.real("qec");

  const std::string objective_name = knob.text("objective");
  core::SteadyStateObjective objective;
  if (objective_name == "min-generation") {
    objective = core::SteadyStateObjective::kMinTotalGeneration;
  } else if (objective_name == "min-max-generation") {
    objective = core::SteadyStateObjective::kMinMaxGeneration;
  } else if (objective_name == "max-consumption") {
    objective = core::SteadyStateObjective::kMaxTotalConsumption;
  } else if (objective_name == "max-min-consumption") {
    objective = core::SteadyStateObjective::kMaxMinConsumption;
  } else if (objective_name == "max-scale") {
    objective = core::SteadyStateObjective::kMaxConcurrentScale;
  } else {
    throw PreconditionError(util::str_cat(
        "lp: unknown knob value objective='", objective_name,
        "' (valid: min-generation, min-max-generation, max-consumption, "
        "max-min-consumption, max-scale)"));
  }
  const core::SteadyStateLp lp(std::move(lp_spec));
  const core::SteadyStateSolution solution = lp.solve(objective);
  RunMetrics metrics;
  metrics.set_label("status", lp::status_name(solution.status));
  metrics.set_label("objective_name", objective_name);
  metrics.set_scalar("objective", solution.objective);
  metrics.set_scalar("total_generation", solution.total_generation);
  metrics.set_scalar("total_consumption", solution.total_consumption);
  metrics.set_scalar("total_swap_rate", solution.total_swap_rate);
  metrics.set_scalar("active_swap_rules",
                     static_cast<double>(solution.swap_rates.size()));
  metrics.set_scalar("max_violation", solution.max_violation);
  // Emitted only under faults, like the simulators' resilience metrics,
  // so fault-free LP baselines stay byte-identical.
  if (faults.enabled()) {
    metrics.set_scalar("expected_capacity_factor", capacity_factor);
  }
  return metrics;
}

}  // namespace

void register_builtin_protocols(Registry& target) {
  target.add(std::make_unique<Adapter>(
      "balancing", "round-based max-min balancing (paper Sections 4-5)",
      balancing_schema(), run_balancing));
  target.add(std::make_unique<Adapter>(
      "planned", "planned-path baselines (connection-oriented / connectionless)",
      with_shared_knobs({
          {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
          {"mode", KnobType::kString, std::string("oriented"),
           "oriented|connectionless"},
          {"window", KnobType::kInt, std::int64_t{4},
           "concurrent connections window", 1, kU32Max},
          {"max-rounds", KnobType::kInt, std::int64_t{200000}, "round budget", 0,
           kU32Max},
      }),
      run_planned));
  target.add(std::make_unique<Adapter>(
      "hybrid", "balancing + entanglement-path assist (Section 6)",
      balancing_schema({
          {"max-assist-hops", KnobType::kInt, std::int64_t{8},
           "assist search radius in the entanglement graph", 0, kU32Max},
      }),
      run_hybrid));
  target.add(std::make_unique<Adapter>(
      "gossip", "partial-knowledge balancing via count gossip (Section 6)",
      balancing_schema({
          {"fanout", KnobType::kInt, std::int64_t{2},
           "rotating peers contacted per round", 1, kU32Max},
          {"optimistic-peer", KnobType::kBool, true,
           "also contact one random peer per round"},
          {"latency", KnobType::kDouble, 1.0, "classical latency per hop (rounds)"},
      }),
      run_gossip));
  target.add(std::make_unique<Adapter>(
      "distributed", "belief-based protocol with classical latency (Section 2)",
      with_shared_knobs({
          {"latency", KnobType::kDouble, 0.1, "classical latency per hop"},
          {"duration", KnobType::kDouble, 400.0, "simulated duration"},
          {"report-rate", KnobType::kDouble, 1.0, "belief report rate"},
          {"generation-rate", KnobType::kDouble, 1.0,
           "Poisson pair generation rate per edge"},
          {"scan-rate", KnobType::kDouble, 1.0, "per-node swap scan rate"},
          {"dt", KnobType::kDouble, 0.25,
           "epoch length of the vertex-program loop (time units)"},
      }),
      run_distributed));
  target.add(std::make_unique<Adapter>(
      "async_routing",
      "asynchronous entanglement routing of a Poisson request stream "
      "(after Yang et al.)",
      with_shared_knobs({
          {"arrival-rate", KnobType::kDouble, 0.5,
           "Poisson request arrival rate (per time unit)"},
          {"generation-rate", KnobType::kDouble, 1.0,
           "Poisson pair generation rate per edge"},
          {"latency", KnobType::kDouble, 0.1,
           "classical latency per hop for token handoffs"},
          {"timeout", KnobType::kDouble, 50.0, "drop a request waiting this long"},
          {"duration", KnobType::kDouble, 400.0, "simulated duration"},
          {"dt", KnobType::kDouble, 0.25,
           "epoch length of the vertex-program loop (time units)"},
      }),
      run_async_routing));
  target.add(std::make_unique<Adapter>(
      "fidelity", "fidelity-aware event simulation (Section 3.2)",
      with_shared_knobs({
          {"raw-fidelity", KnobType::kDouble, 0.97, "generated-pair fidelity"},
          {"app-fidelity", KnobType::kDouble, 0.80, "application target fidelity"},
          {"usable-fidelity", KnobType::kDouble, 0.70, "discard threshold"},
          {"memory-T", KnobType::kDouble, 100.0, "memory decay constant"},
          {"duration", KnobType::kDouble, 500.0, "simulated duration"},
          {"distill", KnobType::kBool, true, "enable BBPSSW distillation"},
          {"pairing", KnobType::kString, std::string("freshest"),
           "freshest|oldest pairing policy"},
      }),
      run_fidelity));
  // No threads knob: the steady-state solve has no engine, and
  // accepting-then-ignoring threads would misrepresent the run. The
  // registry's knob validation rejects it with a clear error.
  target.add(std::make_unique<Adapter>(
      "lp", "steady-state linear program (Section 3)",
      with_shared_knobs(
          {
              {"gamma", KnobType::kDouble, 1.0, "generation capacity per edge"},
              {"kappa", KnobType::kDouble, 0.1, "demand per consumer pair"},
              {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
              {"survival", KnobType::kDouble, 1.0, "survival factor L"},
              {"qec", KnobType::kDouble, 1.0, "QEC overhead R"},
              {"objective", KnobType::kString, std::string("min-generation"),
               "min-generation|min-max-generation|max-consumption|"
               "max-min-consumption|max-scale"},
          },
          /*engine=*/false),
      run_lp));
}

}  // namespace poq::scenario
