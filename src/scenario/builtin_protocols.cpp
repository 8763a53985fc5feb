// Built-in protocol adapters: the bridge between the unified scenario API
// and the per-family simulators in core/. Each adapter declares its knob
// schema (which doubles as the poqsim CLI surface) and maps the family's
// Result struct onto RunMetrics. All per-protocol Config/Result plumbing
// in the repo lives here and nowhere else.
//
// Conventions shared by the adapters:
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

/// Intra-run concurrency knob shared by every protocol on the
/// phase-kernel engine (balancing, planned, hybrid, gossip, fidelity) or
/// the vertex-program substrate (distributed, async_routing). Results are
/// bit-identical for every threads setting, so parallelism is
/// purely a performance decision. Protocols with no engine at all (lp)
/// do not declare it and the registry rejects it outright.
std::vector<KnobSpec> tick_knobs() {
  return {
      {"threads", KnobType::kInt, std::int64_t{1},
       "intra-run worker threads (0 = hardware; never changes results)"},
  };
}

/// An integer knob narrowed to uint32 only after checking it lies in
/// [lo, hi]; a bare cast would wrap -1 to 2^32 - 1 and 2^32 + 1 to 1.
std::uint32_t knob_u32(const ScenarioSpec& spec, const std::string& name,
                       std::int64_t fallback, std::int64_t lo,
                       std::int64_t hi = std::numeric_limits<std::uint32_t>::max()) {
  const std::int64_t value = spec.knob_int(name, fallback);
  if (value < lo || value > hi) {
    throw PreconditionError(util::str_cat("knob '", name, "' must be in [", lo,
                                          ", ", hi, "], got ", value));
  }
  return static_cast<std::uint32_t>(value);
}

sim::TickConcurrency tick_from_spec(const ScenarioSpec& spec) {
  sim::TickConcurrency tick;
  tick.threads = knob_u32(spec, "threads", 1, 0, 4096);
  return tick;
}

/// Fault-injection knobs shared by every simulator protocol (everything
/// except lp, which scales capacities by expected availability instead of
/// simulating churn). Scripted events travel as the spec's `faults` array,
/// not a knob: they are structured (round, kind, entity) rather than a
/// scalar.
std::vector<KnobSpec> fault_knobs() {
  return {
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
  };
}

sim::FaultConfig fault_config_from_spec(const ScenarioSpec& spec) {
  sim::FaultConfig config;
  config.node_mtbf = spec.knob_double("fault-node-mtbf", 0.0);
  config.node_mttr = spec.knob_double("fault-node-mttr", 10.0);
  config.link_mtbf = spec.knob_double("fault-link-mtbf", 0.0);
  config.link_mttr = spec.knob_double("fault-link-mttr", 10.0);
  config.rate_degradation = spec.knob_double("fault-rate-degradation", 0.0);
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

core::BalancingConfig balancing_config(const ScenarioSpec& spec) {
  core::BalancingConfig config;
  config.distillation = spec.knob_double("distillation", 1.0);
  config.max_rounds = knob_u32(spec, "max-rounds", 50000, 0);
  config.swaps_per_node_per_round = knob_u32(spec, "swap-rate", 1, 0);
  config.generation_per_edge_per_round = spec.knob_double("generation-rate", 1.0);
  config.seed = spec.seed;
  if (spec.knob_int("detour-slack", -1) != -1) {  // -1 = unrestricted
    config.policy.detour_slack = knob_u32(spec, "detour-slack", -1, 0);
  }
  config.arrival_rate = spec.knob_double("arrival-rate", 0.0);
  const std::int64_t consumer_pool = spec.knob_int("consumer-pool", 0);
  require(consumer_pool >= 0, "knob 'consumer-pool' must be >= 0");
  config.consumer_pool = static_cast<std::uint64_t>(consumer_pool);
  const std::int64_t max_requests = spec.knob_int("max-requests", 0);
  require(max_requests >= 0, "knob 'max-requests' must be >= 0");
  config.max_requests = static_cast<std::uint64_t>(max_requests);
  config.faults = fault_config_from_spec(spec);
  return config;
}

/// Knobs of the round-based core, without the tick-engine knobs.
std::vector<KnobSpec> balancing_knobs() {
  return {
      {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
      {"max-rounds", KnobType::kInt, std::int64_t{50000}, "round budget"},
      {"swap-rate", KnobType::kInt, std::int64_t{1}, "swaps per node per round"},
      {"generation-rate", KnobType::kDouble, 1.0, "pairs per edge per round"},
      {"detour-slack", KnobType::kInt, std::int64_t{-1},
       "extra hops the swap policy tolerates (-1 = unrestricted)"},
      {"arrival-rate", KnobType::kDouble, 0.0,
       "streaming workload: Poisson request arrivals per round "
       "(0 = fixed request sequence)"},
      {"consumer-pool", KnobType::kInt, std::int64_t{0},
       "virtual consumer-pair pool for streaming arrivals (0 = C(n,2); "
       "pairs are derived lazily, the pool is never materialized)"},
      {"max-requests", KnobType::kInt, std::int64_t{0},
       "streaming stop: finish after satisfying this many requests "
       "(0 = run until max-rounds)"},
  };
}

std::vector<KnobSpec> balancing_knobs_with_tick() {
  std::vector<KnobSpec> knobs = balancing_knobs();
  for (KnobSpec& knob : tick_knobs()) knobs.push_back(std::move(knob));
  for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
  return knobs;
}

class BalancingProtocol final : public Protocol {
 public:
  std::string name() const override { return "balancing"; }
  std::string describe() const override {
    return "round-based max-min balancing (paper Sections 4-5)";
  }
  std::vector<KnobSpec> knobs() const override {
    return balancing_knobs_with_tick();
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    const ScenarioInstance instance = instantiate(spec);
    core::BalancingConfig config = balancing_config(spec);
    config.tick = tick_from_spec(spec);
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
};

class PlannedProtocol final : public Protocol {
 public:
  std::string name() const override { return "planned"; }
  std::string describe() const override {
    return "planned-path baselines (connection-oriented / connectionless)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = {
        {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
        {"mode", KnobType::kString, std::string("oriented"),
         "oriented|connectionless"},
        {"window", KnobType::kInt, std::int64_t{4},
         "concurrent connections window"},
        {"max-rounds", KnobType::kInt, std::int64_t{200000}, "round budget"},
    };
    for (KnobSpec& knob : tick_knobs()) knobs.push_back(std::move(knob));
    for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::PlannedPathConfig config;
    config.distillation = spec.knob_double("distillation", 1.0);
    config.window = knob_u32(spec, "window", 4, 1);
    config.max_rounds = knob_u32(spec, "max-rounds", 200000, 0);
    config.seed = spec.seed;
    config.tick = tick_from_spec(spec);
    config.faults = fault_config_from_spec(spec);
    const std::string mode = spec.knob_string("mode", "oriented");
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
    metrics.set_scalar("pairs_generated",
                       static_cast<double>(result.pairs_generated));
    add_overhead_metrics(metrics, result.swaps_performed, result.denominator_paper,
                         result.denominator_exact);
    metrics.set_scalar("mean_service", result.service_rounds.mean());
    metrics.set_stats("service_rounds", result.service_rounds);
    add_fault_metrics(metrics, config.faults, result.faults);
    return metrics;
  }
};

class HybridProtocol final : public Protocol {
 public:
  std::string name() const override { return "hybrid"; }
  std::string describe() const override {
    return "balancing + entanglement-path assist (Section 6)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = balancing_knobs_with_tick();
    knobs.push_back({"max-assist-hops", KnobType::kInt, std::int64_t{8},
                     "assist search radius in the entanglement graph"});
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::HybridConfig config;
    config.base = balancing_config(spec);
    config.base.tick = tick_from_spec(spec);
    config.max_assist_hops = knob_u32(spec, "max-assist-hops", 8, 0);
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
};

class GossipProtocol final : public Protocol {
 public:
  std::string name() const override { return "gossip"; }
  std::string describe() const override {
    return "partial-knowledge balancing via count gossip (Section 6)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = balancing_knobs_with_tick();
    knobs.push_back({"fanout", KnobType::kInt, std::int64_t{2},
                     "rotating peers contacted per round"});
    knobs.push_back({"optimistic-peer", KnobType::kBool, true,
                     "also contact one random peer per round"});
    knobs.push_back({"latency", KnobType::kDouble, 1.0,
                     "classical latency per hop (rounds)"});
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::GossipConfig config;
    config.base = balancing_config(spec);
    config.base.tick = tick_from_spec(spec);
    config.fanout = knob_u32(spec, "fanout", 2, 1);
    config.optimistic_peer = spec.knob_bool("optimistic-peer", true);
    config.latency_per_hop = spec.knob_double("latency", 1.0);
    const ScenarioInstance instance = instantiate(spec);
    const core::GossipResult result =
        core::run_gossip(instance.graph, instance.workload, config);
    RunMetrics metrics;
    add_balancing_metrics(metrics, result.base);
    add_balancing_fault_metrics(metrics, config.base.faults, result.base);
    metrics.set_scalar("view_age", result.mean_view_age);
    metrics.set_scalar("control_messages",
                       static_cast<double>(result.control_messages));
    metrics.set_scalar("control_bytes", static_cast<double>(result.control_bytes));
    metrics.set_timing("phase_ms.exchange",
                       static_cast<double>(result.base.phase.exchange_ns) / 1e6);
    return metrics;
  }
};

class DistributedProtocol final : public Protocol {
 public:
  std::string name() const override { return "distributed"; }
  std::string describe() const override {
    return "belief-based protocol with classical latency (Section 2)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = {
        {"latency", KnobType::kDouble, 0.1, "classical latency per hop"},
        {"duration", KnobType::kDouble, 400.0, "simulated duration"},
        {"report-rate", KnobType::kDouble, 1.0, "belief report rate"},
        {"generation-rate", KnobType::kDouble, 1.0,
         "Poisson pair generation rate per edge"},
        {"scan-rate", KnobType::kDouble, 1.0, "per-node swap scan rate"},
        {"dt", KnobType::kDouble, 0.25,
         "epoch length of the vertex-program loop (time units)"},
    };
    for (KnobSpec& knob : tick_knobs()) knobs.push_back(std::move(knob));
    for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::DistributedConfig config;
    config.latency_per_hop = spec.knob_double("latency", 0.1);
    config.duration = spec.knob_double("duration", 400.0);
    config.report_rate = spec.knob_double("report-rate", 1.0);
    config.generation_rate = spec.knob_double("generation-rate", 1.0);
    config.scan_rate = spec.knob_double("scan-rate", 1.0);
    config.dt = spec.knob_double("dt", 0.25);
    config.seed = spec.seed;
    config.tick = tick_from_spec(spec);
    config.faults = fault_config_from_spec(spec);
    const ScenarioInstance instance = instantiate(spec);
    const core::DistributedResult result =
        core::run_distributed(instance.graph, instance.workload, config);
    RunMetrics metrics;
    metrics.set_scalar("satisfied", static_cast<double>(result.requests_satisfied));
    metrics.set_scalar("swaps", static_cast<double>(result.swaps));
    metrics.set_scalar("stale_swap_fraction", result.stale_swap_fraction());
    metrics.set_scalar("conflict_fraction", result.conflict_fraction());
    metrics.set_scalar("view_age", result.decision_view_age.mean());
    metrics.set_scalar("control_messages",
                       static_cast<double>(result.control_messages));
    metrics.set_scalar("control_bytes", static_cast<double>(result.control_bytes));
    metrics.set_scalar("pairs_generated",
                       static_cast<double>(result.pairs_generated));
    if (result.request_latency.count() > 0) {
      metrics.set_scalar("mean_request_latency", result.request_latency.mean());
    }
    metrics.set_stats("request_latency", result.request_latency);
    metrics.set_stats("decision_view_age", result.decision_view_age);
    add_fault_metrics(metrics, config.faults, result.faults);
    return metrics;
  }
};

class AsyncRoutingProtocol final : public Protocol {
 public:
  std::string name() const override { return "async_routing"; }
  std::string describe() const override {
    return "asynchronous entanglement routing of a Poisson request stream "
           "(after Yang et al.)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = {
        {"arrival-rate", KnobType::kDouble, 0.5,
         "Poisson request arrival rate (per time unit)"},
        {"generation-rate", KnobType::kDouble, 1.0,
         "Poisson pair generation rate per edge"},
        {"latency", KnobType::kDouble, 0.1,
         "classical latency per hop for token handoffs"},
        {"timeout", KnobType::kDouble, 50.0,
         "drop a request waiting this long"},
        {"duration", KnobType::kDouble, 400.0, "simulated duration"},
        {"dt", KnobType::kDouble, 0.25,
         "epoch length of the vertex-program loop (time units)"},
    };
    for (KnobSpec& knob : tick_knobs()) knobs.push_back(std::move(knob));
    for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::AsyncRoutingConfig config;
    config.arrival_rate = spec.knob_double("arrival-rate", 0.5);
    config.generation_rate = spec.knob_double("generation-rate", 1.0);
    config.latency_per_hop = spec.knob_double("latency", 0.1);
    config.timeout = spec.knob_double("timeout", 50.0);
    config.duration = spec.knob_double("duration", 400.0);
    config.dt = spec.knob_double("dt", 0.25);
    config.seed = spec.seed;
    config.tick = tick_from_spec(spec);
    config.faults = fault_config_from_spec(spec);
    const ScenarioInstance instance = instantiate(spec);
    const core::AsyncRoutingResult result =
        core::run_async_routing(instance.graph, instance.workload, config);
    RunMetrics metrics;
    metrics.set_scalar("arrived", static_cast<double>(result.requests_arrived));
    metrics.set_scalar("satisfied",
                       static_cast<double>(result.requests_satisfied));
    metrics.set_scalar("dropped", static_cast<double>(result.requests_dropped));
    metrics.set_scalar("satisfied_fraction", result.satisfied_fraction());
    metrics.set_scalar("drop_fraction", result.drop_fraction());
    metrics.set_scalar("swaps", static_cast<double>(result.swaps));
    metrics.set_scalar("pairs_generated",
                       static_cast<double>(result.pairs_generated));
    metrics.set_scalar("pairs_consumed",
                       static_cast<double>(result.pairs_consumed));
    metrics.set_scalar("control_messages",
                       static_cast<double>(result.control_messages));
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
};

class FidelityProtocol final : public Protocol {
 public:
  std::string name() const override { return "fidelity"; }
  std::string describe() const override {
    return "fidelity-aware event simulation (Section 3.2)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = {
        {"raw-fidelity", KnobType::kDouble, 0.97, "generated-pair fidelity"},
        {"app-fidelity", KnobType::kDouble, 0.80, "application target fidelity"},
        {"usable-fidelity", KnobType::kDouble, 0.70, "discard threshold"},
        {"memory-T", KnobType::kDouble, 100.0, "memory decay constant"},
        {"duration", KnobType::kDouble, 500.0, "simulated duration"},
        {"distill", KnobType::kBool, true, "enable BBPSSW distillation"},
        {"pairing", KnobType::kString, std::string("freshest"),
         "freshest|oldest pairing policy"},
    };
    for (KnobSpec& knob : tick_knobs()) knobs.push_back(std::move(knob));
    for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    core::FidelitySimConfig config;
    config.raw_fidelity = spec.knob_double("raw-fidelity", 0.97);
    config.app_fidelity = spec.knob_double("app-fidelity", 0.80);
    config.usable_fidelity = spec.knob_double("usable-fidelity", 0.70);
    config.memory_time_constant = spec.knob_double("memory-T", 100.0);
    config.duration = spec.knob_double("duration", 500.0);
    config.distillation_enabled = spec.knob_bool("distill", true);
    config.seed = spec.seed;
    config.tick = tick_from_spec(spec);
    config.faults = fault_config_from_spec(spec);
    const std::string pairing = spec.knob_string("pairing", "freshest");
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
    metrics.set_scalar("pairs_generated",
                       static_cast<double>(result.pairs_generated));
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
};

class LpProtocol final : public Protocol {
 public:
  std::string name() const override { return "lp"; }
  std::string describe() const override {
    return "steady-state linear program (Section 3)";
  }
  std::vector<KnobSpec> knobs() const override {
    std::vector<KnobSpec> knobs = {
        {"gamma", KnobType::kDouble, 1.0, "generation capacity per edge"},
        {"kappa", KnobType::kDouble, 0.1, "demand per consumer pair"},
        {"distillation", KnobType::kDouble, 1.0, "distillation overhead D"},
        {"survival", KnobType::kDouble, 1.0, "survival factor L"},
        {"qec", KnobType::kDouble, 1.0, "QEC overhead R"},
        {"objective", KnobType::kString, std::string("min-generation"),
         "min-generation|min-max-generation|max-consumption|"
         "max-min-consumption|max-scale"},
    };
    // No tick knobs: the steady-state solve has no engine to select, and
    // accepting-then-ignoring threads would misrepresent the run.
    // The registry's knob validation rejects them with a clear error.
    for (KnobSpec& knob : fault_knobs()) knobs.push_back(std::move(knob));
    return knobs;
  }
  RunMetrics run(const ScenarioSpec& spec) const override {
    if (!spec.faults.empty()) {
      throw PreconditionError(
          "lp: scripted fault events are not supported — the steady-state "
          "LP has no rounds to apply them at; use the fault-*-mtbf/mttr "
          "knobs, which scale capacities by expected availability");
    }
    const sim::FaultConfig faults = fault_config_from_spec(spec);
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
    const double gamma = spec.knob_double("gamma", 1.0) * capacity_factor;
    for (const graph::Edge& edge : instance.graph.edges()) {
      lp_spec.generation_capacity.push_back(
          core::RatedPair{core::NodePair(edge.a(), edge.b()), gamma});
    }
    const double kappa = spec.knob_double("kappa", 0.1);
    for (const core::NodePair& pair : instance.workload.pairs) {
      lp_spec.demand.push_back(core::RatedPair{pair, kappa});
    }
    lp_spec.distillation = spec.knob_double("distillation", 1.0);
    lp_spec.survival = spec.knob_double("survival", 1.0);
    lp_spec.qec_overhead = spec.knob_double("qec", 1.0);

    const std::string objective_name =
        spec.knob_string("objective", "min-generation");
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
};

}  // namespace

void register_builtin_protocols(Registry& target) {
  target.add(std::make_unique<BalancingProtocol>());
  target.add(std::make_unique<PlannedProtocol>());
  target.add(std::make_unique<HybridProtocol>());
  target.add(std::make_unique<GossipProtocol>());
  target.add(std::make_unique<DistributedProtocol>());
  target.add(std::make_unique<AsyncRoutingProtocol>());
  target.add(std::make_unique<FidelityProtocol>());
  target.add(std::make_unique<LpProtocol>());
}

}  // namespace poq::scenario
