#include "core/lp_formulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::core {

namespace {

constexpr lp::VarId kNoVar = std::numeric_limits<lp::VarId>::max();

/// Triangular index of the unordered pair (x < y) among C(n,2) pairs.
std::size_t pair_index(std::size_t n, NodeId x, NodeId y) {
  if (x > y) std::swap(x, y);
  return static_cast<std::size_t>(x) * (2 * n - x - 1) / 2 + (y - x - 1);
}

}  // namespace

struct SteadyStateLp::Build {
  lp::LpModel model;
  std::vector<lp::VarId> sigma;      // [center * P + pair_index]
  std::vector<lp::VarId> gen_vars;   // aligned with spec.generation_capacity
  std::vector<lp::VarId> cons_vars;  // aligned with spec.demand (empty when pinned)
  lp::VarId aux = kNoVar;            // M / t / alpha, depending on objective
};

SteadyStateLp::SteadyStateLp(SteadyStateSpec spec) : spec_(std::move(spec)) {
  require(spec_.node_count >= 3, "SteadyStateLp: need at least 3 nodes");
  require(std::isfinite(spec_.distillation) && spec_.distillation >= 1.0,
          "SteadyStateLp: distillation overhead D must be finite and >= 1");
  require(spec_.survival > 0.0 && spec_.survival <= 1.0,
          "SteadyStateLp: survival factor L must be in (0, 1]");
  require(spec_.qec_overhead >= 1.0, "SteadyStateLp: QEC overhead R must be >= 1");
  for (const RatedPair& entry : spec_.generation_capacity) {
    require(entry.pair.second < spec_.node_count, "SteadyStateLp: bad node id");
    require(entry.rate > 0.0, "SteadyStateLp: gamma entries must be positive");
  }
  for (const RatedPair& entry : spec_.demand) {
    require(entry.pair.second < spec_.node_count, "SteadyStateLp: bad node id");
    require(entry.rate >= 0.0, "SteadyStateLp: kappa must be non-negative");
  }
}

std::size_t SteadyStateLp::sigma_variable_count() const {
  const std::size_t n = spec_.node_count;
  return n * ((n - 1) * (n - 2) / 2);
}

SteadyStateLp::Build SteadyStateLp::build(SteadyStateObjective objective) const {
  const std::size_t n = spec_.node_count;
  const std::size_t pairs = n * (n - 1) / 2;
  const bool demand_pinned =
      objective == SteadyStateObjective::kMinTotalGeneration ||
      objective == SteadyStateObjective::kMinMaxGeneration;
  const bool demand_scaled = objective == SteadyStateObjective::kMaxConcurrentScale;

  Build build;
  lp::LpModel& model = build.model;

  // --- sigma_i({a,b}) variables ---
  build.sigma.assign(n * pairs, kNoVar);
  for (NodeId center = 0; center < n; ++center) {
    for (NodeId a = 0; a < n; ++a) {
      if (a == center) continue;
      for (NodeId b = a + 1; b < n; ++b) {
        if (b == center) continue;
        build.sigma[center * pairs + pair_index(n, a, b)] = model.add_nonnegative(
            util::str_cat("sigma_", center, "(", a, ",", b, ")"));
      }
    }
  }

  // --- g variables (bounded by gamma) ---
  build.gen_vars.reserve(spec_.generation_capacity.size());
  for (const RatedPair& entry : spec_.generation_capacity) {
    build.gen_vars.push_back(model.add_variable(
        0.0, entry.rate,
        util::str_cat("g(", entry.pair.first, ",", entry.pair.second, ")")));
  }

  // --- c variables (or pinned / scaled demand) ---
  if (!demand_pinned && !demand_scaled) {
    build.cons_vars.reserve(spec_.demand.size());
    for (const RatedPair& entry : spec_.demand) {
      build.cons_vars.push_back(model.add_variable(
          0.0, entry.rate,
          util::str_cat("c(", entry.pair.first, ",", entry.pair.second, ")")));
    }
  }
  if (demand_scaled) {
    build.aux = model.add_nonnegative("alpha");
  }

  // --- steady-state rows: one per unordered pair ---
  std::vector<lp::LinearExpr> rows(pairs);
  std::vector<double> rhs(pairs, 0.0);

  // Swap terms: sigma_c({a,b}) arrives at (a,b) with +L, departs from
  // (c,a) and from (c,b) with -D each (Eqs. 3-4).
  for (NodeId center = 0; center < n; ++center) {
    for (NodeId a = 0; a < n; ++a) {
      if (a == center) continue;
      for (NodeId b = a + 1; b < n; ++b) {
        if (b == center) continue;
        const lp::VarId var = build.sigma[center * pairs + pair_index(n, a, b)];
        rows[pair_index(n, a, b)].push_back(lp::Term{var, spec_.survival});
        rows[pair_index(n, center, a)].push_back(lp::Term{var, -spec_.distillation});
        rows[pair_index(n, center, b)].push_back(lp::Term{var, -spec_.distillation});
      }
    }
  }

  // Generation arrivals, thinned by QEC: +L g / R.
  for (std::size_t e = 0; e < spec_.generation_capacity.size(); ++e) {
    const NodePair& pair = spec_.generation_capacity[e].pair;
    rows[pair_index(n, pair.first, pair.second)].push_back(
        lp::Term{build.gen_vars[e], spec_.survival / spec_.qec_overhead});
  }

  // Consumption departures: -D c (variable, pinned constant, or alpha-scaled).
  for (std::size_t d = 0; d < spec_.demand.size(); ++d) {
    const NodePair& pair = spec_.demand[d].pair;
    const std::size_t row = pair_index(n, pair.first, pair.second);
    if (demand_pinned) {
      rhs[row] += spec_.distillation * spec_.demand[d].rate;
    } else if (demand_scaled) {
      rows[row].push_back(
          lp::Term{build.aux, -spec_.distillation * spec_.demand[d].rate});
    } else {
      rows[row].push_back(lp::Term{build.cons_vars[d], -spec_.distillation});
    }
  }

  for (std::size_t r = 0; r < pairs; ++r) {
    model.add_constraint(std::move(rows[r]), lp::Relation::kGreaterEqual, rhs[r]);
  }

  // --- objective ---
  switch (objective) {
    case SteadyStateObjective::kMinTotalGeneration:
      model.set_objective_sense(lp::Sense::kMinimize);
      for (lp::VarId v : build.gen_vars) model.set_objective_coefficient(v, 1.0);
      break;
    case SteadyStateObjective::kMinMaxGeneration: {
      model.set_objective_sense(lp::Sense::kMinimize);
      build.aux = model.add_nonnegative("max_generation");
      for (lp::VarId v : build.gen_vars) {
        model.add_constraint({lp::Term{v, 1.0}, lp::Term{build.aux, -1.0}},
                             lp::Relation::kLessEqual, 0.0);
      }
      model.set_objective_coefficient(build.aux, 1.0);
      break;
    }
    case SteadyStateObjective::kMaxTotalConsumption:
      model.set_objective_sense(lp::Sense::kMaximize);
      for (lp::VarId v : build.cons_vars) model.set_objective_coefficient(v, 1.0);
      break;
    case SteadyStateObjective::kMaxMinConsumption: {
      model.set_objective_sense(lp::Sense::kMaximize);
      build.aux = model.add_nonnegative("min_consumption");
      for (lp::VarId v : build.cons_vars) {
        model.add_constraint({lp::Term{v, 1.0}, lp::Term{build.aux, -1.0}},
                             lp::Relation::kGreaterEqual, 0.0);
      }
      model.set_objective_coefficient(build.aux, 1.0);
      break;
    }
    case SteadyStateObjective::kMaxConcurrentScale:
      model.set_objective_sense(lp::Sense::kMaximize);
      model.set_objective_coefficient(build.aux, 1.0);
      break;
  }
  return build;
}

SteadyStateSolution SteadyStateLp::solve(SteadyStateObjective objective,
                                         const lp::SimplexOptions& options) const {
  const Build built = build(objective);
  const lp::Solution raw = lp::solve(built.model, options);

  SteadyStateSolution solution;
  solution.status = raw.status;
  if (raw.status != lp::SolveStatus::kOptimal) return solution;
  solution.objective = raw.objective;
  solution.max_violation = built.model.max_violation(raw.values);

  const std::size_t n = spec_.node_count;
  const std::size_t pairs = n * (n - 1) / 2;
  for (NodeId center = 0; center < n; ++center) {
    for (NodeId a = 0; a < n; ++a) {
      if (a == center) continue;
      for (NodeId b = a + 1; b < n; ++b) {
        if (b == center) continue;
        const lp::VarId var = built.sigma[center * pairs + pair_index(n, a, b)];
        const double rate = raw.values[var];
        solution.total_swap_rate += rate;
        // 1e-6 keeps anti-degeneracy perturbation residue out of the list.
        if (rate > 1e-6) {
          solution.swap_rates.push_back(SwapRate{center, NodePair(a, b), rate});
        }
      }
    }
  }
  for (std::size_t e = 0; e < spec_.generation_capacity.size(); ++e) {
    const double rate = raw.values[built.gen_vars[e]];
    solution.generation.push_back(RatedPair{spec_.generation_capacity[e].pair, rate});
    solution.total_generation += rate;
  }
  for (std::size_t d = 0; d < spec_.demand.size(); ++d) {
    double rate;
    if (!built.cons_vars.empty()) {
      rate = raw.values[built.cons_vars[d]];
    } else if (objective == SteadyStateObjective::kMaxConcurrentScale) {
      rate = raw.values[built.aux] * spec_.demand[d].rate;
    } else {
      rate = spec_.demand[d].rate;  // pinned
    }
    solution.consumption.push_back(RatedPair{spec_.demand[d].pair, rate});
    solution.total_consumption += rate;
  }
  return solution;
}

SteadyStateSolution SteadyStateLp::solve_lexicographic(
    const lp::SimplexOptions& options) const {
  const SteadyStateSolution first = solve(SteadyStateObjective::kMaxTotalConsumption,
                                          options);
  if (first.status != lp::SolveStatus::kOptimal) return first;

  SteadyStateSpec pinned = spec_;
  pinned.demand.clear();
  for (const RatedPair& achieved : first.consumption) {
    // Shave a whisker off the pinned rates so simplex round-off in the
    // first stage cannot render the second stage infeasible.
    pinned.demand.push_back(
        RatedPair{achieved.pair, std::max(0.0, achieved.rate - 1e-7)});
  }
  const SteadyStateLp second_stage(std::move(pinned));
  SteadyStateSolution second =
      second_stage.solve(SteadyStateObjective::kMinTotalGeneration, options);
  return second;
}

}  // namespace poq::core
