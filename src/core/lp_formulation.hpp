// The paper's path-oblivious LP (§3).
//
// Inputs: maximum generation rates gamma(x,y) (the physical architecture),
// desired consumption rates kappa(x,y) (teleportation demand), a uniform
// distillation overhead D, a uniform survival factor L, and a QEC
// overhead R that thins generation to g/R (§3.2). The paper's §3.2 allows
// D and L to vary per pair; every protocol here runs with one value each,
// so the spec holds scalars. Decision variables are
// the swap rates sigma_i(x,y) — any node may swap any pair of its
// entanglement partners; no path structure is imposed — plus g and c where
// the objective frees them.
//
// Steady-state constraint per unordered pair (x, y)  (Eqs. 1-4):
//
//   L ( g(x,y)/R + sum_i sigma_i(x,y) )
//     >= D ( c(x,y) + sum_i ( sigma_x(i,y) + sigma_y(i,x) ) )
//
// (arrivals >= departures; equality holds at a tight optimum).
//
// Objectives (§3.3): conserve generation when supply is sufficient
// (minimize total or peak g), or share the shortfall fairly when it is
// not (maximize total c, the minimum c, or the largest alpha with
// c = alpha * kappa), plus the lexicographic combination (maximize
// consumption, then produce it with minimal generation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace poq::core {

struct RatedPair {
  NodePair pair;
  double rate = 0.0;
};

struct SteadyStateSpec {
  std::size_t node_count = 0;
  /// gamma: maximum generation rate per generating pair (only pairs with
  /// gamma > 0 appear; these edges form the generation graph).
  std::vector<RatedPair> generation_capacity;
  /// kappa: desired consumption rate per demand pair.
  std::vector<RatedPair> demand;
  double distillation = 1.0;  // D >= 1, finite
  double survival = 1.0;      // L in (0, 1]
  double qec_overhead = 1.0;  // R >= 1 (physical qubits per logical)
};

enum class SteadyStateObjective {
  kMinTotalGeneration,   // demand pinned at kappa; minimize sum g
  kMinMaxGeneration,     // demand pinned at kappa; minimize max g
  kMaxTotalConsumption,  // g <= gamma, c <= kappa; maximize sum c
  kMaxMinConsumption,    // g <= gamma, c <= kappa; maximize min c
  kMaxConcurrentScale,   // c = alpha kappa; maximize alpha
};

/// A nonzero swap rate sigma_repeater({a, b}).
struct SwapRate {
  NodeId repeater = 0;
  NodePair pair;
  double rate = 0.0;
};

struct SteadyStateSolution {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<SwapRate> swap_rates;      // entries with rate > 1e-9
  std::vector<RatedPair> generation;     // achieved g
  std::vector<RatedPair> consumption;    // achieved c
  double total_generation = 0.0;
  double total_consumption = 0.0;
  double total_swap_rate = 0.0;
  /// Maximum steady-state constraint violation (sanity check; ~0).
  double max_violation = 0.0;
};

/// Builder/solver for the steady-state program.
class SteadyStateLp {
 public:
  explicit SteadyStateLp(SteadyStateSpec spec);

  [[nodiscard]] const SteadyStateSpec& spec() const { return spec_; }

  /// Solve under one §3.3 objective.
  [[nodiscard]] SteadyStateSolution solve(SteadyStateObjective objective,
                                          const lp::SimplexOptions& options = {}) const;

  /// §3.3 third bullet: first maximize total consumption, then rebuild
  /// with the achieved consumption pinned and minimize total generation.
  [[nodiscard]] SteadyStateSolution solve_lexicographic(
      const lp::SimplexOptions& options = {}) const;

  /// Number of sigma variables the formulation creates (for sizing tests).
  [[nodiscard]] std::size_t sigma_variable_count() const;

 private:
  struct Build;
  [[nodiscard]] Build build(SteadyStateObjective objective) const;

  SteadyStateSpec spec_;
};

}  // namespace poq::core
