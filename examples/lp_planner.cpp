// Capacity planning with the §3 steady-state LP: given a physical
// architecture (generation capacities) and a teleportation demand matrix,
// compute the optimal swap-rate program and what it costs in generation —
// with and without QEC overhead and distillation, and how far from the
// pairs they serve the optimum puts its swapping repeaters.
//
//   ./build/examples/lp_planner
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/lp_formulation.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "util/strings.hpp"

int main() {
  using namespace poq;

  // A 4x4 torus backbone: every adjacent pair can generate 1 pair/sec.
  const graph::Graph backbone = graph::make_torus_grid(16);
  core::SteadyStateSpec spec;
  spec.node_count = 16;
  for (const graph::Edge& edge : backbone.edges()) {
    spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), 1.0});
  }
  // Three teleportation applications with different demand rates.
  spec.demand = {
      core::RatedPair{core::NodePair(0, 10), 0.30},   // diagonal, far
      core::RatedPair{core::NodePair(3, 12), 0.20},
      core::RatedPair{core::NodePair(1, 2), 0.40},    // adjacent
  };

  const core::SteadyStateLp planner(spec);
  std::cout << "Steady-state LP: " << planner.sigma_variable_count()
            << " swap-rate variables over 16 nodes\n\n";

  const core::SteadyStateSolution plan =
      planner.solve(core::SteadyStateObjective::kMinTotalGeneration);
  std::cout << "min-total-generation plan: " << lp::status_name(plan.status)
            << "\n  total generation rate: "
            << util::format_double(plan.total_generation, 3)
            << " pairs/sec\n  total swap rate:       "
            << util::format_double(plan.total_swap_rate, 3) << " swaps/sec\n";

  // The busiest swap rules of the program.
  auto rates = plan.swap_rates;
  std::sort(rates.begin(), rates.end(),
            [](const core::SwapRate& a, const core::SwapRate& b) {
              return a.rate > b.rate;
            });
  std::cout << "  top swap rules (sigma_i(x,y) = rate):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, rates.size()); ++i) {
    std::cout << "    sigma_" << rates[i].repeater << "(" << rates[i].pair.first
              << "," << rates[i].pair.second
              << ") = " << util::format_double(rates[i].rate, 3) << '\n';
  }

  // What if the demand doubles? Find the largest uniform scale alpha.
  const core::SteadyStateSolution scale =
      planner.solve(core::SteadyStateObjective::kMaxConcurrentScale);
  std::cout << "\nlargest concurrent demand scale alpha = "
            << util::format_double(scale.objective, 3)
            << "  (alpha >= 1 means the demand fits " << "with headroom)\n";

  // The §3.2 extensions: QEC thinning R and distillation D raise the bill.
  std::cout << "\ngeneration bill under Section 3.2 extensions "
               "(min-total-generation):\n";
  for (const auto& [label, d, r] :
       {std::tuple<const char*, double, double>{"bare (D=1, R=1)", 1.0, 1.0},
        std::tuple<const char*, double, double>{"distilled (D=2)", 2.0, 1.0},
        std::tuple<const char*, double, double>{"QEC (R=3)", 1.0, 3.0},
        std::tuple<const char*, double, double>{"distilled + QEC", 2.0, 3.0}}) {
    core::SteadyStateSpec variant = spec;
    variant.distillation = d;
    variant.qec_overhead = r;
    // Headroom so the distilled variants stay feasible.
    for (core::RatedPair& edge : variant.generation_capacity) edge.rate = 20.0;
    const core::SteadyStateLp lp(std::move(variant));
    const core::SteadyStateSolution solution =
        lp.solve(core::SteadyStateObjective::kMinTotalGeneration);
    std::cout << "  " << util::pad_right(label, 18) << " -> "
              << (solution.status == lp::SolveStatus::kOptimal
                      ? util::format_double(solution.total_generation, 3) +
                            " pairs/sec"
                      : std::string(lp::status_name(solution.status)))
              << '\n';
  }

  // Swap locality: how far off a shortest x-y path does the min-generation
  // optimum put its repeater i (detour = d(x,i) + d(i,y) - d(x,y))? Detour
  // 0 is an on-path repeater; congested edges can make off-path ones pay.
  const auto distances = graph::all_pairs_distances(backbone);
  std::vector<double> rate_by_detour;
  for (const core::SwapRate& swap : plan.swap_rates) {
    const auto [x, y] = swap.pair;
    const std::size_t detour = distances[x][swap.repeater] +
                               distances[swap.repeater][y] - distances[x][y];
    if (rate_by_detour.size() <= detour) rate_by_detour.resize(detour + 1, 0.0);
    rate_by_detour[detour] += swap.rate;
  }
  std::cout << "\nswap locality of the min-total-generation plan:\n";
  for (std::size_t detour = 0; detour < rate_by_detour.size(); ++detour) {
    if (rate_by_detour[detour] <= 0.0) continue;
    std::cout << "  repeater detour " << detour << " hop(s): "
              << util::format_double(rate_by_detour[detour] / plan.total_swap_rate, 3)
              << " of the swap rate\n";
  }
  return 0;
}
