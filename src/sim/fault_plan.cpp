#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/parallel_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace poq::sim {

void FaultConfig::validate() const {
  const auto check = [](bool ok, const char* knob, const char* rule,
                        double value) {
    require(ok, util::str_cat("knob '", knob, "' must be ", rule, ", got ",
                              value));
  };
  check(std::isfinite(node_mtbf) && node_mtbf >= 0.0, "fault-node-mtbf",
        "finite and >= 0", node_mtbf);
  check(std::isfinite(node_mttr) && node_mttr >= 1.0, "fault-node-mttr",
        "finite and >= 1 round", node_mttr);
  check(std::isfinite(link_mtbf) && link_mtbf >= 0.0, "fault-link-mtbf",
        "finite and >= 0", link_mtbf);
  check(std::isfinite(link_mttr) && link_mttr >= 1.0, "fault-link-mttr",
        "finite and >= 1 round", link_mttr);
  check(rate_degradation >= 0.0 && rate_degradation < 1.0,
        "fault-rate-degradation", "in [0, 1)", rate_degradation);
}

FaultPlan::FaultPlan(const graph::Graph& graph, const FaultConfig& config,
                     std::uint64_t seed)
    : graph_(graph), config_(config), seed_(seed) {
  config.validate();

  const std::size_t n = graph.node_count();
  node_up_.assign(n, 1);
  link_up_.assign(graph.edge_count(), 1);
  edge_available_.assign(graph.edge_count(), 1);
  if (config_.node_mtbf > 0.0) {
    fail_flags_.resize(std::max(fail_flags_.size(), n));
    recover_flags_.resize(std::max(recover_flags_.size(), n));
  }
  if (config_.link_mtbf > 0.0) {
    fail_flags_.resize(std::max(fail_flags_.size(), graph.edge_count()));
    recover_flags_.resize(std::max(recover_flags_.size(), graph.edge_count()));
  }
  crashed_.reserve(n);

  // Validate + resolve the script once; advance() then only walks the
  // cursor. Same-round events must keep list order, so sort an index
  // permutation on (round, position) — a total order, in place, no
  // stable_sort temporary buffer.
  std::vector<std::size_t> order(config_.script.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    if (config_.script[i].round != config_.script[j].round) {
      return config_.script[i].round < config_.script[j].round;
    }
    return i < j;
  });
  script_.clear();
  script_.reserve(order.size());
  for (const std::size_t i : order) script_.push_back(config_.script[i]);
  script_edges_.assign(script_.size(), 0);
  for (std::size_t i = 0; i < script_.size(); ++i) {
    const FaultEvent& event = script_[i];
    switch (event.kind) {
      case FaultEventKind::kNodeDown:
      case FaultEventKind::kNodeUp:
        require(event.node < n, util::str_cat("fault script: node ",
                                              event.node, " does not exist"));
        break;
      case FaultEventKind::kLinkDown:
      case FaultEventKind::kLinkUp: {
        const auto index = graph.edge_index(event.a, event.b);
        if (!index.has_value()) {
          throw PreconditionError(util::str_cat(
              "fault script: no generation edge between nodes ", event.a,
              " and ", event.b));
        }
        script_edges_[i] = *index;
        break;
      }
      case FaultEventKind::kRateFactor:
        require(event.factor >= 0.0 && event.factor <= 1.0,
                "fault script: rate factor must be in [0, 1]");
        break;
    }
  }
}

void FaultPlan::set_node(core::NodeId x, bool up) {
  if ((node_up_[x] != 0) == up) return;
  node_up_[x] = up ? 1 : 0;
  if (up) {
    --nodes_down_;
  } else {
    ++nodes_down_;
    ++stats_.node_crashes;
    crashed_.push_back(x);
  }
}

void FaultPlan::set_link(std::size_t edge, bool up) {
  if ((link_up_[edge] != 0) == up) return;
  link_up_[edge] = up ? 1 : 0;
  if (up) {
    --links_down_;
  } else {
    ++links_down_;
    ++stats_.link_downs;
  }
}

void FaultPlan::apply_event(const FaultEvent& event, std::size_t edge_index) {
  switch (event.kind) {
    case FaultEventKind::kNodeDown: set_node(event.node, false); break;
    case FaultEventKind::kNodeUp: set_node(event.node, true); break;
    case FaultEventKind::kLinkDown: set_link(edge_index, false); break;
    case FaultEventKind::kLinkUp: set_link(edge_index, true); break;
    case FaultEventKind::kRateFactor:
      scripted_rate_factor_ = event.factor;
      break;
  }
}

void FaultPlan::refresh_edges() {
  // O(edges) once per round; only paid while faults are enabled.
  edges_down_ = 0;
  const auto& edges = graph_.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const bool up = link_up_[e] != 0 && node_up_[edges[e].a()] != 0 &&
                    node_up_[edges[e].b()] != 0;
    edge_available_[e] = up ? 1 : 0;
    if (!up) ++edges_down_;
  }
}

const std::vector<core::NodeId>& FaultPlan::advance(std::uint64_t round,
                                                    double now) {
  crashed_.clear();

  // 1. Scripted events stamped with this round, in canonical order.
  while (script_cursor_ < script_.size() &&
         script_[script_cursor_].round <= round) {
    apply_event(script_[script_cursor_], script_edges_[script_cursor_]);
    ++script_cursor_;
  }

  // 2. Stochastic transitions, one keyed stream per (round, entity).
  // Both hazard thresholds are tested against the same stream element
  // (bernoulli_batch reads the stream's first raw output), so one batch
  // pair covers whichever state the entity is in.
  if (config_.node_mtbf > 0.0) {
    const std::size_t n = node_up_.size();
    util::Rng::bernoulli_batch(seed_, stream_tag::kFaultNode, round, 0,
                               1.0 / config_.node_mtbf,
                               std::span(fail_flags_.data(), n));
    util::Rng::bernoulli_batch(seed_, stream_tag::kFaultNode, round, 0,
                               1.0 / config_.node_mttr,
                               std::span(recover_flags_.data(), n));
    for (core::NodeId x = 0; x < n; ++x) {
      if (node_up_[x] != 0) {
        if (fail_flags_[x] != 0) set_node(x, false);
      } else if (recover_flags_[x] != 0) {
        set_node(x, true);
      }
    }
  }
  if (config_.link_mtbf > 0.0) {
    const std::size_t m = link_up_.size();
    util::Rng::bernoulli_batch(seed_, stream_tag::kFaultLink, round, 0,
                               1.0 / config_.link_mtbf,
                               std::span(fail_flags_.data(), m));
    util::Rng::bernoulli_batch(seed_, stream_tag::kFaultLink, round, 0,
                               1.0 / config_.link_mttr,
                               std::span(recover_flags_.data(), m));
    for (std::size_t e = 0; e < m; ++e) {
      if (link_up_[e] != 0) {
        if (fail_flags_[e] != 0) set_link(e, false);
      } else if (recover_flags_[e] != 0) {
        set_link(e, true);
      }
    }
  }

  // 3. Derived state for the round: edge availability and rate factor.
  refresh_edges();
  rate_factor_ = scripted_rate_factor_;
  if (config_.rate_degradation > 0.0) {
    util::Rng rate_rng =
        util::Rng::keyed(seed_, stream_tag::kFaultRate, round, 0);
    rate_factor_ *= 1.0 - config_.rate_degradation * rate_rng.uniform_double();
  }

  // 4. Resilience accounting.
  ++stats_.rounds;
  const auto entities =
      static_cast<double>(node_up_.size() + link_up_.size());
  stats_.availability_sum +=
      entities > 0.0
          ? static_cast<double>(node_up_.size() - nodes_down_ +
                                link_up_.size() - links_down_) /
                entities
          : 1.0;
  if (degraded()) {
    ++stats_.degraded_rounds;
    in_episode_ = true;
  } else if (in_episode_) {
    in_episode_ = false;
    awaiting_recovery_ = true;
    episode_end_ = now;
  }

  std::sort(crashed_.begin(), crashed_.end());
  return crashed_;
}

void FaultPlan::record_delivery(double now) {
  if (degraded()) ++stats_.delivered_under_fault;
  if (awaiting_recovery_) {
    stats_.time_to_recover.add(now - episode_end_);
    awaiting_recovery_ = false;
  }
}

}  // namespace poq::sim
