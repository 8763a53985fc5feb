#include "core/fidelity_sim.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "quantum/distillation.hpp"
#include "quantum/werner.hpp"
#include "sim/network_state.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::core {

double FidelitySimResult::realized_distillation_overhead() const {
  const double products =
      static_cast<double>(swaps - swap_outputs_discarded) +
      static_cast<double>(distillations);
  if (products <= 0.0) return 0.0;
  const double inputs = 2.0 * static_cast<double>(swaps + distillations +
                                                  distillation_failures);
  return inputs / products;
}

namespace {

sim::DecayModel decay_model(const FidelitySimConfig& config) {
  return sim::DecayModel{config.memory_time_constant, config.usable_fidelity};
}

/// Head-of-line consumption against the tracked-pair state, run at every
/// slice boundary.
struct Consumer {
  const Workload& workload;
  const FidelitySimConfig& config;
  sim::NetworkState& state;
  FidelitySimResult& result;
  sim::FaultPlan* fault_plan = nullptr;
  std::size_t head = 0;
  double head_since = 0.0;

  void try_consume(double now) {
    while (head < workload.request_count()) {
      const NodePair& pair = workload.request(head);
      result.pairs_decayed += state.purge_pair_type(pair.first, pair.second, now);
      if (state.best_fidelity(pair.first, pair.second, now) < config.app_fidelity) {
        break;
      }
      const sim::TrackedPair used =
          state.take_pair(pair.first, pair.second, now, /*freshest=*/true);
      result.consumed_fidelity.add(state.fidelity_now(used, now));
      result.storage_age_at_use.add(now - used.created);
      result.request_latency.add(now - head_since);
      ++result.requests_satisfied;
      if (fault_plan != nullptr) fault_plan->record_delivery(now);
      ++head;
      head_since = now;
    }
  }
};

/// The distillation target at x when no swap is preferable: the partner
/// whose best pair is furthest below the application target but still
/// distillable (and has a spare copy). Returns x when none qualifies.
NodeId pick_distill_peer(const sim::NetworkState& state,
                         const FidelitySimConfig& config, NodeId x, double now) {
  NodeId best_peer = x;
  double worst_best = config.app_fidelity;
  state.ledger().row(x).for_each([&](NodeId y, std::uint32_t count) {
    if (count < 2) return;
    const double best = state.best_fidelity(x, y, now);
    if (best > quantum::kDistillableThreshold && best < worst_best) {
      worst_best = best;
      best_peer = y;
    }
  });
  return best_peer;
}

}  // namespace

/// The fidelity physics as fixed time slices of phase kernels. Per slice:
/// decohere (chunked per-bucket purge) -> generate (per-edge Poisson
/// arrivals from keyed streams, merged in canonical edge order) -> decide
/// (per-node scan events drawn from keyed streams; each scanning node's
/// decision computed from scratch against the slice snapshot across node
/// chunks) -> commit (all scan events executed serially in canonical
/// (timestamp, node id) order, each re-validated against the live state)
/// -> consume (head-of-line at the slice boundary). Every draw is keyed
/// per (slice, entity[, event]) so results are bit-identical for every
/// threads setting.
FidelitySimResult run_fidelity_sim(const graph::Graph& generation_graph,
                                   const Workload& workload,
                                   const FidelitySimConfig& config) {
  // An empty bucket's best fidelity reads 0, so a target <= 0 (or NaN)
  // would count a missing pair as good enough.
  require(std::isfinite(config.app_fidelity) && config.app_fidelity > 0.0 &&
              config.app_fidelity <= 1.0,
          util::str_cat("fidelity_sim: app-fidelity must be finite and in "
                        "(0, 1], got ", config.app_fidelity));
  require(config.memory_time_constant > 0.0,
          util::str_cat("fidelity_sim: memory-T must be > 0, got ",
                        config.memory_time_constant));
  require(config.raw_fidelity > config.usable_fidelity,
          "fidelity_sim: raw pairs must be usable when fresh");
  require(std::isfinite(config.duration) && config.duration > 0.0,
          "fidelity_sim: duration must be finite and positive");
  require(std::isfinite(config.generation_rate) && config.generation_rate >= 0.0,
          "fidelity_sim: generation rate must be finite and >= 0");
  require(std::isfinite(config.scan_rate) && config.scan_rate > 0.0,
          "fidelity_sim: scan rate must be finite and positive");
  require(generation_graph.node_count() >= 3, "fidelity_sim: need at least 3 nodes");
  const std::size_t n = generation_graph.node_count();
  sim::NetworkState state(generation_graph, config.seed, config.tick,
                          decay_model(config));
  const MaxMinBalancer balancer{1.0};
  FidelitySimResult result;

  // Fault plan: one fault round per slice. Advanced serially at the slice
  // start, so every chunk reads the same up/down masks and rate factor.
  std::optional<sim::FaultPlan> fault_plan;
  if (config.faults.enabled()) {
    fault_plan.emplace(generation_graph, config.faults, config.seed);
  }
  Consumer consumer{workload, config, state, result,
                    fault_plan ? &*fault_plan : nullptr};
  const bool freshest = config.policy == PairingPolicy::kFreshest;

  // Slice width is a quarter of the mean scan interval; it is a semantic
  // constant of the slice discipline, not a tuning knob.
  const double dt = 0.25 / config.scan_rate;
  const auto slices =
      static_cast<std::uint64_t>(std::ceil(config.duration / dt));

  /// A node's slice decision, computed against the slice snapshot: either
  /// a swap candidate or a distillation peer (peer == node when neither).
  struct NodeDecision {
    std::optional<SwapCandidate> swap;
    NodeId distill_peer = 0;
  };
  const std::size_t edge_count = generation_graph.edge_count();
  std::vector<std::vector<double>> edge_arrivals(edge_count);
  std::vector<std::vector<double>> node_scans(n);
  // Flat per-entity stream buffers: each chunk batch-derives its keyed
  // streams into its range (Rng::keyed_batch hoists the per-slice sponge
  // prefix; every element is bit-identical to the scalar derivation).
  std::vector<util::Rng> edge_rngs(edge_count);
  std::vector<util::Rng> node_rngs(n);
  std::vector<NodeDecision> decisions(n);
  // Decide scratch is per pool worker: pure workspace, never a result.
  std::vector<MaxMinBalancer::Scratch> worker_scratch(
      state.pool().thread_count());
  for (MaxMinBalancer::Scratch& scratch : worker_scratch) scratch.reserve(n);
  std::vector<NodeId> purge_partners;  // commit's lazy-purge row copy
  purge_partners.reserve(n);

  struct ScanEvent {
    double time = 0.0;
    NodeId node = 0;
    std::uint32_t index = 0;  // per-node event index within the slice
  };
  std::vector<ScanEvent> events;

  for (std::uint64_t s = 0; s < slices; ++s) {
    util::this_thread_check_cancelled();
    const double t0 = static_cast<double>(s) * dt;
    const double t1 = std::min(config.duration, t0 + dt);
    const double span = t1 - t0;

    // 0. Fault phase (serial): advance the plan to this slice, whose
    // episode time is its start, and destroy crashed nodes' stored pairs
    // (purged, not decayed).
    if (fault_plan) {
      const std::vector<NodeId>& crashed = fault_plan->advance(s, t0);
      for (const NodeId x : crashed) {
        fault_plan->record_purged(state.purge_node(x));
      }
    }
    const bool masked = fault_plan && fault_plan->any_edge_down();
    const double generation_rate =
        config.generation_rate * (fault_plan ? fault_plan->rate_factor() : 1.0);

    // 1. Decohere kernel: purge every bucket at the slice start.
    result.pairs_decayed += state.decohere_all(t0);

    // 2. Generation kernel: per-edge Poisson arrivals from streams keyed
    // (seed, generation-tag, slice, edge); merged in canonical edge order.
    {
      const sim::PhaseStopwatch stopwatch(state.timers().generate_ns);
      state.pool().run_chunks(
          edge_count, sim::grain::kGenerate, &state.timers().generate_load,
          [&](std::size_t begin, std::size_t end, unsigned) {
        util::Rng::keyed_batch(
            config.seed, sim::stream_tag::kGeneration, s, begin,
            std::span<util::Rng>(edge_rngs.data() + begin, end - begin));
        for (std::size_t e = begin; e < end; ++e) {
          edge_arrivals[e].clear();
          // A downed edge skips its draw entirely — its stream is keyed
          // per (slice, edge), so no other edge's stream shifts.
          if (masked && !fault_plan->edge_up(e)) continue;
          util::Rng& rng = edge_rngs[e];
          const std::uint64_t arrivals = rng.poisson(generation_rate * span);
          for (std::uint64_t k = 0; k < arrivals; ++k) {
            edge_arrivals[e].push_back(t0 + rng.uniform_double() * span);
          }
          std::sort(edge_arrivals[e].begin(), edge_arrivals[e].end());
        }
      });
      const auto& edges = generation_graph.edges();
      for (std::size_t e = 0; e < edge_count; ++e) {
        for (const double t : edge_arrivals[e]) {
          state.add_pair(edges[e].a(), edges[e].b(), t, config.raw_fidelity);
          ++result.pairs_generated;
        }
      }
    }

    // 3. Decide kernel: per-node scan times from streams keyed (seed,
    // event-tag, slice, node), and the node's decision against the
    // post-generation snapshot, fanned across node chunks. Only a node
    // that scans this slice decides, and it decides from scratch.
    {
      const sim::PhaseStopwatch stopwatch(state.timers().decide_ns);
      state.pool().run_chunks(
          n, sim::grain::kDecide, &state.timers().decide_load,
          [&](std::size_t begin, std::size_t end, unsigned worker) {
        MaxMinBalancer::Scratch& scratch = worker_scratch[worker];
        util::Rng::keyed_batch(
            config.seed, sim::stream_tag::kEventTimes, s, begin,
            std::span<util::Rng>(node_rngs.data() + begin, end - begin));
        for (std::size_t node = begin; node < end; ++node) {
          const auto x = static_cast<NodeId>(node);
          node_scans[x].clear();
          if (fault_plan && !fault_plan->node_up(x)) {
            decisions[x] = NodeDecision{std::nullopt, x};  // crashed: no scans
            continue;
          }
          util::Rng& rng = node_rngs[node];
          const std::uint64_t scans = rng.poisson(config.scan_rate * span);
          for (std::uint64_t k = 0; k < scans; ++k) {
            node_scans[x].push_back(t0 + rng.uniform_double() * span);
          }
          std::sort(node_scans[x].begin(), node_scans[x].end());
          decisions[x] = NodeDecision{std::nullopt, x};
          if (node_scans[x].empty()) continue;
          decisions[x].swap = balancer.best_swap(state.ledger(), x, scratch);
          if (!decisions[x].swap && config.distillation_enabled) {
            decisions[x].distill_peer = pick_distill_peer(state, config, x, t0);
          }
        }
      });
    }

    // 4. Commit kernel: all scan events in canonical order — ascending
    // timestamp, ties broken by node id then per-node event index. The
    // (node, index) pair is unique, so sorting on the full key is a total
    // order and an in-place std::sort lands the same permutation a stable
    // time-only sort of the node-major insertion order would — without
    // stable_sort's per-slice temporary buffer.
    {
      const sim::PhaseStopwatch stopwatch(state.timers().commit_ns);
      events.clear();
      for (NodeId x = 0; x < static_cast<NodeId>(n); ++x) {
        for (std::size_t k = 0; k < node_scans[x].size(); ++k) {
          events.push_back(ScanEvent{node_scans[x][k], x,
                                     static_cast<std::uint32_t>(k)});
        }
      }
      std::sort(events.begin(), events.end(),
                [](const ScanEvent& lhs, const ScanEvent& rhs) {
                  if (lhs.time != rhs.time) return lhs.time < rhs.time;
                  if (lhs.node != rhs.node) return lhs.node < rhs.node;
                  return lhs.index < rhs.index;
                });
      for (const ScanEvent& event : events) {
        const NodeId x = event.node;
        const double now = event.time;
        // Lazy purge of x's buckets at the event time, over a copy of
        // x's partners (a purge may erase the pair from the row).
        purge_partners.clear();
        state.ledger().row(x).for_each(
            [&](NodeId y, std::uint32_t) { purge_partners.push_back(y); });
        for (const NodeId y : purge_partners) {
          result.pairs_decayed += state.purge_pair_type(x, y, now);
        }
        const NodeDecision& decision = decisions[x];
        if (decision.swap) {
          const SwapCandidate& candidate = *decision.swap;
          // Re-validate against the live state: an earlier commit or purge
          // may have consumed the pairs the slice decision relied on.
          if (!balancer.is_preferable(state.ledger(), x, candidate.left,
                                      candidate.right)) {
            continue;
          }
          const sim::TrackedPair left =
              state.take_pair(x, candidate.left, now, freshest);
          const sim::TrackedPair right =
              state.take_pair(x, candidate.right, now, freshest);
          const double fused = quantum::swap_fidelity(
              state.fidelity_now(left, now), state.fidelity_now(right, now));
          ++result.swaps;
          if (fused >= config.usable_fidelity) {
            state.add_pair(candidate.left, candidate.right, now, fused);
          } else {
            ++result.swap_outputs_discarded;
          }
          continue;
        }
        if (decision.distill_peer == x) continue;
        const NodeId peer = decision.distill_peer;
        if (state.ledger().count(x, peer) < 2) continue;  // pairs already taken
        const sim::TrackedPair a = state.take_pair(x, peer, now, freshest);
        const sim::TrackedPair b = state.take_pair(x, peer, now, freshest);
        const quantum::DistillationStep step =
            quantum::bbpssw(state.fidelity_now(a, now), state.fidelity_now(b, now));
        // Success draw keyed per (slice, node, event) so it is consumed only
        // by this event, wherever the slice boundaries fall.
        util::Rng draw = util::Rng::keyed(
            config.seed, sim::stream_tag::kEventDraw,
            (s << 20) | event.index, x);
        if (draw.bernoulli(step.success_probability) &&
            step.output_fidelity >= config.usable_fidelity) {
          state.add_pair(x, peer, now, step.output_fidelity);
          ++result.distillations;
        } else {
          ++result.distillation_failures;
        }
      }
    }

    // 5. Consumption kernel at the slice boundary.
    consumer.try_consume(t1);
  }

  result.pairs_stored = state.ledger().total_pairs();
  result.phase = state.timers();
  if (fault_plan) result.faults = fault_plan->stats();
  return result;
}

}  // namespace poq::core
