// run_benches — the one driver for the paper's figures and ablations.
//
// Every suite is a grid of ScenarioSpecs fanned through the parallel
// scenario::SweepRunner and lands in one unified BENCH_<suite>.json
// schema: per cell the full spec, the aggregated metrics
// (count/mean/stddev/min/max per scalar), and wall time. Suites cover the
// paper's claims (Fig. 4/5, the §5 planned-path comparison and rate
// insensitivity, §2 classical latency, the §6 ablations, the §3 LP and the
// §3.2 fidelity study) plus the engine, serving and stress gates. For a
// human-readable pivot of any grid, use `poqsim sweep --grid --metric M`.
//
// Usage: run_benches [--quick] [--out-dir DIR] [--suite NAME] [--threads N]
//                    [--intra-threads K] [--check BASELINE.json] [--rel-tol X]
//                    [--poqsim PATH]
//   --quick     smaller sweeps and one seed per cell (the `bench` target's
//               default); omit for the full paper-scale grids
//   --out-dir   where to write BENCH_*.json (default: current directory)
//   --suite     run the suites whose name contains NAME (default all)
//   --threads   sweep worker threads (default 0 = hardware concurrency)
//   --intra-threads  intra-run threads for every simulating protocol
//               (everything but lp); auto-sized pools divide by
//               this so pool x intra-run stays within the hardware budget
//   --check     after running, diff the matching suite's cells against a
//               committed baseline JSON with a relative tolerance; exits
//               nonzero on regression (the CI perf/correctness gate).
//               Cell specs match with their threads knob ignored,
//               so any --intra-threads run checks against the baseline
//   --rel-tol   relative tolerance for --check (default 1e-9: every suite
//               is deterministic; loosen it only to compare full-scale
//               runs by hand)
//   --poqsim    path to the poqsim binary, used by the serve suite's cold
//               per-process comparison (default ./poqsim; the cold timing
//               is skipped when the binary is missing)
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "scenario/protocol.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace poq;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr int kSchemaVersion = 2;

const std::vector<graph::TopologyFamily> kFigureFamilies = {
    graph::TopologyFamily::kCycle, graph::TopologyFamily::kRandomGrid,
    graph::TopologyFamily::kFullGrid};

struct SuiteRun {
  std::string name;
  std::uint32_t seeds = 1;
  /// Intra-run threads the cells actually ran with (suites that pin the
  /// sweep serial override the global --intra-threads).
  unsigned intra_threads = 1;
  std::vector<scenario::CellAggregate> cells;
  double total_wall_ms = 0.0;
};

struct Options {
  bool quick = false;
  std::string out_dir = ".";
  std::string suite_filter;  // empty = all
  unsigned threads = 0;
  /// Intra-run threads for every simulating protocol (all but lp);
  /// the sweep pool's auto size divides by this so the two parallelism
  /// levels compose without oversubscription. Never changes the numbers.
  unsigned intra_threads = 1;
  std::string check_path;
  double rel_tol = 1e-9;
  /// poqsim binary for the serve suite's cold-launch comparison.
  std::string poqsim = "./poqsim";
};

SuiteRun run_grid(const std::string& name, std::vector<scenario::ScenarioSpec> grid,
                  std::uint32_t seeds, const Options& options) {
  scenario::SweepOptions sweep;
  sweep.seeds_per_cell = seeds;
  sweep.threads = options.threads;
  if (options.intra_threads != 1) {
    scenario::apply_intra_run_threads(grid, options.intra_threads);
    sweep.intra_run_threads = options.intra_threads;
  }
  const scenario::SweepRunner runner(sweep);
  SuiteRun run;
  run.name = name;
  run.seeds = seeds;
  run.intra_threads = options.intra_threads;
  const Clock::time_point start = Clock::now();
  run.cells = runner.run(grid);
  run.total_wall_ms = elapsed_ms(start);
  return run;
}

util::json::Value suite_to_json(const SuiteRun& run, const Options& options) {
  using util::json::Value;
  Value out = Value::object();
  out.set("bench", run.name);
  out.set("schema_version", static_cast<double>(kSchemaVersion));
  Value config = Value::object();
  config.set("quick", options.quick);
  config.set("seeds", static_cast<double>(run.seeds));
  // Thread provenance for committed baselines: the suite's own intra-run
  // thread count (some suites pin it regardless of the flag).
  config.set("intra_threads", static_cast<double>(run.intra_threads));
  out.set("config", std::move(config));
  out.set("total_wall_ms", run.total_wall_ms);
  Value cells = Value::array();
  for (const scenario::CellAggregate& cell : run.cells) {
    cells.push_back(cell.to_json());
  }
  out.set("cells", std::move(cells));
  return out;
}

void write_suite(const SuiteRun& run, const Options& options) {
  const std::string path = options.out_dir + "/BENCH_" + run.name + ".json";
  std::ofstream file(path);
  if (!file) throw PreconditionError("cannot write " + path);
  file << suite_to_json(run, options).dump(2);
  std::cout << "wrote " << path << " (" << run.cells.size() << " cells, "
            << util::format_double(run.total_wall_ms, 0) << " ms)\n";
}

// ---------------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------------

scenario::ScenarioSpec finite_spec(const std::string& protocol, std::size_t nodes,
                                   std::size_t requests, std::uint64_t base_seed) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = "random-grid";
  spec.nodes = nodes;
  spec.consumer_pairs = 35;
  spec.requests = requests;
  spec.seed = base_seed;
  spec.knobs["max-rounds"] = std::int64_t{400000};
  return spec;
}

/// The paper's §5 figure cell: balancing on `family` over n nodes at
/// distillation D, 35 consumer pairs and an in-order request backlog that
/// never drains within the fixed round budget, so the swap overhead is
/// taken over the consumption events that were satisfied.
scenario::ScenarioSpec balancing_cell_spec(graph::TopologyFamily family, std::size_t n,
                                           double distillation, std::int64_t round_budget,
                                           std::size_t backlog = 1000000) {
  scenario::ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = graph::family_name(family);
  spec.nodes = n;
  spec.consumer_pairs = 35;  // instantiate clamps to C(n,2)
  spec.requests = backlog;
  spec.seed = 1000;
  spec.knobs["distillation"] = distillation;
  spec.knobs["max-rounds"] = round_budget;
  return spec;
}

SuiteRun suite_fig4(const Options& options) {
  const std::int64_t round_budget = options.quick ? 2000 : 6000;
  const std::uint32_t seeds = options.quick ? 1 : 3;
  const std::vector<double> distillations =
      options.quick ? std::vector<double>{1.0, 2.0, 3.0}
                    : std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<scenario::ScenarioSpec> grid;
  for (const double d : distillations) {
    for (const auto family : kFigureFamilies) {
      grid.push_back(balancing_cell_spec(family, 25, d, round_budget));
    }
  }
  return run_grid("fig4_overhead_vs_distillation", std::move(grid), seeds, options);
}

SuiteRun suite_fig5(const Options& options) {
  const std::int64_t round_budget = options.quick ? 1000 : 3000;
  const std::uint32_t seeds = options.quick ? 1 : 3;
  const std::vector<std::size_t> sizes =
      options.quick ? std::vector<std::size_t>{9, 16, 25}
                    : std::vector<std::size_t>{9, 16, 25, 36, 49, 64, 81, 100};
  std::vector<scenario::ScenarioSpec> grid;
  for (const std::size_t n : sizes) {
    for (const auto family : kFigureFamilies) {
      grid.push_back(balancing_cell_spec(family, n, 1.0, round_budget));
    }
  }
  return run_grid("fig5_overhead_vs_nodes", std::move(grid), seeds, options);
}

SuiteRun suite_ablation_variants(const Options& options) {
  const std::size_t requests = options.quick ? 40 : 120;
  const std::uint32_t seeds = options.quick ? 1 : 3;
  const std::vector<double> distillations =
      options.quick ? std::vector<double>{1.0, 2.0}
                    : std::vector<double>{1.0, 2.0, 3.0};
  std::vector<scenario::ScenarioSpec> grid;
  for (const double d : distillations) {
    scenario::ScenarioSpec plain = finite_spec("balancing", 25, requests, 3000);
    plain.knobs["distillation"] = d;
    grid.push_back(plain);
    for (const std::int64_t slack : {std::int64_t{0}, std::int64_t{2}}) {
      scenario::ScenarioSpec variant = plain;
      variant.knobs["detour-slack"] = slack;
      grid.push_back(variant);
    }
    scenario::ScenarioSpec hybrid = plain;
    hybrid.protocol = "hybrid";
    grid.push_back(hybrid);
  }
  return run_grid("ablation_variants", std::move(grid), seeds, options);
}

SuiteRun suite_baseline_comparison(const Options& options) {
  const std::size_t requests = options.quick ? 40 : 120;
  const std::uint32_t seeds = options.quick ? 1 : 3;
  const std::vector<double> distillations =
      options.quick ? std::vector<double>{1.0, 2.0}
                    : std::vector<double>{1.0, 2.0, 3.0};
  std::vector<scenario::ScenarioSpec> grid;
  for (const double d : distillations) {
    scenario::ScenarioSpec oblivious = finite_spec("balancing", 25, requests, 2000);
    oblivious.knobs["distillation"] = d;
    grid.push_back(oblivious);
    for (const char* mode : {"oriented", "connectionless"}) {
      scenario::ScenarioSpec planned = finite_spec("planned", 25, requests, 2000);
      planned.knobs.erase("max-rounds");  // planned keeps its own default
      planned.knobs["distillation"] = d;
      planned.knobs["window"] = std::int64_t{4};
      planned.knobs["mode"] = std::string(mode);
      grid.push_back(planned);
    }
  }
  return run_grid("baseline_comparison", std::move(grid), seeds, options);
}

SuiteRun suite_ablation_knowledge(const Options& options) {
  const std::size_t requests = options.quick ? 30 : 100;
  const std::uint32_t seeds = options.quick ? 1 : 3;
  std::vector<scenario::ScenarioSpec> grid;
  grid.push_back(finite_spec("balancing", 25, requests, 5000));
  for (const std::int64_t fanout : {1, 2, 4, 8}) {
    scenario::ScenarioSpec gossip = finite_spec("gossip", 25, requests, 5000);
    gossip.knobs["fanout"] = fanout;
    grid.push_back(gossip);
  }
  return run_grid("ablation_knowledge", std::move(grid), seeds, options);
}

SuiteRun suite_fidelity_decay(const Options& options) {
  const std::vector<double> time_constants =
      options.quick ? std::vector<double>{10.0, 50.0, 200.0}
                    : std::vector<double>{10.0, 25.0, 50.0, 100.0, 200.0, 1000.0};
  std::vector<scenario::ScenarioSpec> grid;
  for (const double time_constant : time_constants) {
    for (const char* pairing : {"freshest", "oldest"}) {
      scenario::ScenarioSpec spec;
      spec.protocol = "fidelity";
      spec.topology = "random-grid";
      spec.nodes = 16;
      spec.consumer_pairs = 12;
      spec.requests = 100000;
      spec.seed = 31;
      spec.knobs["memory-T"] = time_constant;
      spec.knobs["pairing"] = std::string(pairing);
      spec.knobs["duration"] = options.quick ? 200.0 : 600.0;
      grid.push_back(std::move(spec));
    }
  }
  return run_grid("fidelity_decay", std::move(grid), 1, options);
}

SuiteRun suite_ablation_latency(const Options& options) {
  // §2: both approaches must pay for classical coordination. The
  // belief-based distributed protocol on the torus sweeps the per-hop
  // classical latency; stale_swap_fraction, conflict_fraction, view_age
  // and control_bytes show stale knowledge turning into mis-targeted
  // swaps, and what the control plane costs.
  std::vector<scenario::ScenarioSpec> grid;
  for (const double latency : {0.0, 0.05, 0.2, 0.5, 1.0, 2.0}) {
    scenario::ScenarioSpec spec;
    spec.protocol = "distributed";
    spec.topology = "full-grid";
    spec.nodes = 16;
    spec.consumer_pairs = 10;
    spec.requests = 1000000;  // the sequence never drains within the duration
    spec.seed = 6000;
    spec.knobs["latency"] = latency;
    spec.knobs["duration"] = options.quick ? 100.0 : 400.0;
    grid.push_back(std::move(spec));
  }
  return run_grid("ablation_latency", std::move(grid), options.quick ? 1 : 3, options);
}

SuiteRun suite_ablation_rates(const Options& options) {
  // §5: "varying this rate did not significantly alter the results". The
  // swap-attempt rate sweeps at the paper's generation rate, then the
  // generation rate sweeps at the paper's swap rate; overhead_paper should
  // barely move along the first axis.
  const std::size_t requests = options.quick ? 40 : 120;
  std::vector<scenario::ScenarioSpec> grid;
  const auto add_cell = [&](std::int64_t swap_rate, double generation_rate) {
    scenario::ScenarioSpec spec = finite_spec("balancing", 25, requests, 4000);
    spec.knobs["swap-rate"] = swap_rate;
    spec.knobs["generation-rate"] = generation_rate;
    grid.push_back(std::move(spec));
  };
  for (const std::int64_t swap_rate : {1, 2, 4, 8}) add_cell(swap_rate, 1.0);
  for (const double generation_rate : {0.25, 0.5, 2.0}) add_cell(1, generation_rate);
  return run_grid("ablation_rates", std::move(grid), options.quick ? 1 : 3, options);
}

SuiteRun suite_lp_steady_state(const Options& options) {
  // §3: the steady-state LP under every §3.3 objective, then the §3.2
  // extensions (distillation D, survival L, QEC thinning R) under
  // min-generation, with ample capacity and a small demand so the high-D
  // cases stay feasible.
  const auto lp_spec = [&](double gamma, double kappa) {
    scenario::ScenarioSpec spec;
    spec.protocol = "lp";
    spec.topology = "random-grid";
    spec.nodes = options.quick ? 9 : 16;
    spec.consumer_pairs = options.quick ? 4 : 8;
    spec.requests = 1;
    spec.seed = 7;
    spec.knobs["gamma"] = gamma;
    spec.knobs["kappa"] = kappa;
    return spec;
  };
  std::vector<scenario::ScenarioSpec> grid;
  for (const char* objective : {"min-generation", "min-max-generation", "max-consumption",
                                "max-min-consumption", "max-scale"}) {
    scenario::ScenarioSpec spec = lp_spec(1.0, 0.25);
    spec.knobs["objective"] = std::string(objective);
    grid.push_back(std::move(spec));
  }
  struct Extension {
    double distillation, survival, qec;
  };
  for (const Extension e : {Extension{1, 1, 1}, Extension{2, 1, 1}, Extension{3, 1, 1},
                            Extension{1, 0.8, 1}, Extension{1, 0.5, 1}, Extension{1, 1, 2},
                            Extension{1, 1, 4}, Extension{2, 0.8, 2}}) {
    scenario::ScenarioSpec spec = lp_spec(50.0, 0.05);
    spec.knobs["distillation"] = e.distillation;
    spec.knobs["survival"] = e.survival;
    spec.knobs["qec"] = e.qec;
    grid.push_back(std::move(spec));
  }
  return run_grid("lp_steady_state", std::move(grid), 1, options);
}

SuiteRun suite_parallel_scaling(const Options& options) {
  // Intra-run threads on the largest Fig. 5 cell: the physics is fixed
  // and only the tick engine's `threads` knob sweeps, so the metrics are
  // a cross-thread determinism gate (they must not move at all). Gossip
  // and fidelity cells extend the gate to the full phase-kernel
  // registry. The wall_ms column is not a speedup curve: every kernel
  // range here is below its sim::grain (quick: balancing 49, gossip 25,
  // fidelity 16 nodes; full mode splits only balancing's decide, at
  // n = 100, in two), so each dispatch is one chunk and the extra threads
  // only add worker start-up and parking. The sweep pool is pinned to
  // one task at a time.
  const std::int64_t round_budget = options.quick ? 300 : 1500;
  const std::size_t nodes = options.quick ? 49 : 100;
  std::vector<scenario::ScenarioSpec> grid;
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    scenario::ScenarioSpec spec = balancing_cell_spec(
        graph::TopologyFamily::kRandomGrid, nodes, 1.0, round_budget);
    spec.knobs["threads"] = threads;
    grid.push_back(std::move(spec));
  }
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    scenario::ScenarioSpec spec;
    spec.protocol = "gossip";
    spec.topology = "random-grid";
    spec.nodes = options.quick ? 25 : 49;
    spec.consumer_pairs = 20;
    spec.requests = options.quick ? 40 : 150;
    spec.seed = 71;
    spec.knobs["max-rounds"] = std::int64_t{400000};
    spec.knobs["threads"] = threads;
    grid.push_back(std::move(spec));
  }
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    scenario::ScenarioSpec spec;
    spec.protocol = "fidelity";
    spec.topology = "random-grid";
    spec.nodes = 16;
    spec.consumer_pairs = 12;
    spec.requests = 100000;
    spec.seed = 72;
    spec.knobs["duration"] = options.quick ? 120.0 : 400.0;
    spec.knobs["memory-T"] = 50.0;
    spec.knobs["threads"] = threads;
    grid.push_back(std::move(spec));
  }
  Options serial = options;
  serial.threads = 1;
  serial.intra_threads = 1;  // the grid carries its own threads axis
  return run_grid("parallel_scaling", std::move(grid), 1, serial);
}

SuiteRun suite_hotpath(const Options& options) {
  // Steady-state hot-path gate: Fig.-5-style large sparse random grids at
  // two generation regimes, every decide computed from scratch.
  //   * sparse (generation-rate 0.01): rare generation events only
  //     locally perturb the max-min operating point, so nearly every
  //     round's decide re-derives what the last one found — the regime
  //     where the decide dominates the round.
  //   * dense (generation-rate 1 on the largest quick Fig. 5 cell):
  //     every node's counts move every round.
  // The per-phase timings land in each cell's "timings" object (recorded,
  // never compared by --check). The backlog is trimmed so cell wall_ms
  // measures the round loop, not the workload build.
  const std::int64_t sparse_budget = options.quick ? 6000 : 8000;
  const std::size_t sparse_nodes = options.quick ? 225 : 324;
  const std::int64_t dense_budget = options.quick ? 500 : 1500;
  const std::size_t dense_nodes = options.quick ? 49 : 100;
  std::vector<scenario::ScenarioSpec> grid;
  for (const bool sparse : {true, false}) {
    scenario::ScenarioSpec spec = balancing_cell_spec(
        graph::TopologyFamily::kRandomGrid, sparse ? sparse_nodes : dense_nodes,
        1.0, sparse ? sparse_budget : dense_budget, /*backlog=*/10000);
    if (sparse) spec.knobs["generation-rate"] = 0.01;
    grid.push_back(std::move(spec));
  }
  Options serial = options;
  serial.threads = 1;        // one cell at a time: honest wall_ms
  serial.intra_threads = 1;  // and one intra-run thread, comparable run to run
  return run_grid("hotpath", std::move(grid), 1, serial);
}

SuiteRun suite_deck(const Options& options) {
  // The benchmark's deck in-process: the twelve serve_converge cells and
  // the eight serve_paper cells (those at threads = 1) that perfbench
  // serves, every one run to completion, so the gate holds exactly the
  // runs the benchmark times to bit identity. The per-phase timings land
  // in each cell's "timings" object (recorded, never compared by
  // --check).
  const auto cell = [](const char* protocol, const char* topology, std::size_t nodes,
                       bool one_thread) {
    scenario::ScenarioSpec spec;
    spec.protocol = protocol;
    spec.topology = topology;
    spec.nodes = nodes;
    spec.consumer_pairs = 35;
    spec.requests = 200;
    if (one_thread) spec.knobs["threads"] = std::int64_t{1};
    return spec;
  };
  std::vector<scenario::ScenarioSpec> grid = {
      // serve_converge
      cell("balancing", "full-grid", 36, false),
      cell("balancing", "full-grid", 49, false),
      cell("balancing", "full-grid", 64, false),
      cell("balancing", "cycle", 25, false),
      cell("balancing", "cycle", 36, false),
      cell("balancing", "random-grid", 25, false),
      cell("balancing", "random-grid", 36, false),
      cell("hybrid", "full-grid", 49, false),
      cell("hybrid", "cycle", 49, false),
      cell("gossip", "full-grid", 36, false),
      cell("gossip", "cycle", 25, false),
      cell("gossip", "random-grid", 25, false),
      // serve_paper
      cell("balancing", "full-grid", 81, true),
      cell("balancing", "full-grid", 100, true),
      cell("balancing", "cycle", 49, true),
      cell("hybrid", "full-grid", 81, true),
      cell("hybrid", "full-grid", 100, true),
      cell("hybrid", "cycle", 100, true),
      cell("gossip", "full-grid", 81, true),
      cell("gossip", "cycle", 49, true),
  };
  Options serial = options;
  serial.threads = 1;  // one cell at a time: honest phase timings
  return run_grid("deck", std::move(grid), options.quick ? 1 : 3, serial);
}

SuiteRun suite_async_routing(const Options& options) {
  // Asynchronous entanglement routing: a Poisson request stream resolved
  // continuously on the vertex-program substrate. The grid crosses
  // arrival pressure against entanglement supply, with a handoff-latency
  // axis — the satisfied/dropped fractions and request latency trace how
  // the greedy segment-following protocol degrades under scarcity.
  const std::uint32_t seeds = options.quick ? 1 : 3;
  const std::size_t nodes = options.quick ? 25 : 49;
  const double duration = options.quick ? 150.0 : 400.0;
  const std::vector<double> arrival_rates =
      options.quick ? std::vector<double>{0.4, 1.0}
                    : std::vector<double>{0.25, 0.5, 1.0};
  const std::vector<double> generation_rates =
      options.quick ? std::vector<double>{0.6, 1.5}
                    : std::vector<double>{0.5, 1.0, 2.0};
  const std::vector<double> latencies = options.quick
                                            ? std::vector<double>{0.1, 1.0}
                                            : std::vector<double>{0.1, 0.5, 2.0};
  std::vector<scenario::ScenarioSpec> grid;
  for (const double arrival : arrival_rates) {
    for (const double generation : generation_rates) {
      for (const double latency : latencies) {
        scenario::ScenarioSpec spec;
        spec.protocol = "async_routing";
        spec.topology = "random-grid";
        spec.nodes = nodes;
        spec.consumer_pairs = 20;
        spec.requests = 100000;  // the stream never exhausts the sequence
        spec.seed = 17;
        spec.knobs["arrival-rate"] = arrival;
        spec.knobs["generation-rate"] = generation;
        spec.knobs["latency"] = latency;
        spec.knobs["duration"] = duration;
        grid.push_back(std::move(spec));
      }
    }
  }
  return run_grid("async_routing", std::move(grid), seeds, options);
}

// The serve suite's job mix: one cheap cell per protocol family so a warm
// server request exercises every engine path the daemon can dispatch.
std::vector<scenario::ScenarioSpec> serve_job_grid(bool quick) {
  std::vector<scenario::ScenarioSpec> jobs;
  const std::size_t copies = quick ? 1 : 3;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    const std::uint64_t seed = 600 + 10 * copy;
    scenario::ScenarioSpec balancing;
    balancing.protocol = "balancing";
    balancing.topology = "cycle";
    balancing.nodes = 9;
    balancing.consumer_pairs = 4;
    balancing.requests = 12;
    balancing.seed = seed;
    jobs.push_back(balancing);

    scenario::ScenarioSpec hybrid = balancing;
    hybrid.protocol = "hybrid";
    hybrid.topology = "random-grid";
    hybrid.nodes = 16;
    hybrid.seed = seed + 1;
    jobs.push_back(hybrid);

    scenario::ScenarioSpec gossip = balancing;
    gossip.protocol = "gossip";
    gossip.topology = "random-grid";
    gossip.nodes = 16;
    gossip.seed = seed + 2;
    gossip.knobs["fanout"] = std::int64_t{2};
    gossip.knobs["max-rounds"] = std::int64_t{400000};
    jobs.push_back(gossip);

    scenario::ScenarioSpec fidelity;
    fidelity.protocol = "fidelity";
    fidelity.topology = "random-grid";
    fidelity.nodes = 16;
    fidelity.consumer_pairs = 12;
    fidelity.requests = 100000;
    fidelity.seed = seed + 3;
    fidelity.knobs["memory-T"] = 50.0;
    fidelity.knobs["duration"] = 60.0;
    jobs.push_back(fidelity);
  }
  return jobs;
}

SuiteRun suite_serve(const Options& options) {
  // Warm-vs-cold serving gate. An in-process `serve::Server` answers a
  // mixed-protocol stream of run jobs over its AF_UNIX socket; every
  // served result must be bit-identical (modulo wall-clock timings) to a
  // direct registry run of the same spec — that equality is the gated
  // per-cell scalar, with the job count gated through the cell count.
  // The warm per-request wall time and, when a poqsim binary is at hand,
  // the same jobs as cold `poqsim run --spec` process launches land in
  // the timings (never compared by --check; throughput varies by host).
  using util::json::Value;
  const std::vector<scenario::ScenarioSpec> jobs = serve_job_grid(options.quick);

  serve::ServerOptions server_options;
  server_options.socket_path =
      "/tmp/poqsim-bench-serve-" + std::to_string(::getpid()) + ".sock";
  server_options.workers = 1;  // sequential submit+watch: honest per-request cost
  server_options.queue_depth = jobs.size();
  serve::Server server(server_options);
  server.start();

  const Clock::time_point start = Clock::now();
  std::vector<double> request_ms(jobs.size(), 0.0);
  std::vector<std::string> served(jobs.size());
  {
    serve::Client client(server_options.socket_path);
    client.connect();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Clock::time_point job_start = Clock::now();
      Value request = Value::object();
      request.set("op", "submit_run");
      request.set("spec", jobs[i].to_json());
      request.set("watch", true);
      const Value reply = client.request(request);
      if (!reply.at("ok").as_bool()) {
        throw PreconditionError("serve suite: submit rejected: " + reply.dump());
      }
      const Value terminal = client.read_events();
      if (terminal.at("event").as_string() != "job_done") {
        throw PreconditionError("serve suite: job did not finish: " +
                                terminal.dump());
      }
      served[i] = scenario::RunMetrics::from_json(
                      terminal.at("result").at("metrics"))
                      .to_json(/*include_timings=*/false)
                      .dump();
      request_ms[i] = elapsed_ms(job_start);
    }
  }
  const double warm_total_ms = elapsed_ms(start);
  server.stop();

  // Ground truth after the timed window so the warm numbers stay clean.
  std::size_t identical_jobs = 0;
  std::vector<bool> identical(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string direct = scenario::registry()
                                   .run(jobs[i].protocol, jobs[i])
                                   .to_json(/*include_timings=*/false)
                                   .dump();
    identical[i] = served[i] == direct;
    if (identical[i]) ++identical_jobs;
  }

  // Cold comparison: the same jobs, each as a fresh `poqsim run --spec`
  // process. Recorded as a timing only — and skipped outright (negative
  // sentinel never written) when the binary is missing or fails.
  double cold_total_ms = -1.0;
  if (std::ifstream(options.poqsim).good()) {
    const std::string spec_path = server_options.socket_path + ".spec.json";
    const Clock::time_point cold_start = Clock::now();
    bool cold_ok = true;
    for (const scenario::ScenarioSpec& job : jobs) {
      {
        std::ofstream file(spec_path);
        file << job.to_json().dump();
      }
      const std::string command = "\"" + options.poqsim + "\" run --spec \"" +
                                  spec_path + "\" > /dev/null 2>&1";
      if (std::system(command.c_str()) != 0) {
        cold_ok = false;
        break;
      }
    }
    if (cold_ok) cold_total_ms = elapsed_ms(cold_start);
    std::remove(spec_path.c_str());
  }

  SuiteRun run;
  run.name = "serve";
  run.seeds = 1;
  run.intra_threads = 1;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    scenario::CellAggregate cell;
    cell.spec = jobs[i];
    cell.seeds = 1;
    util::RunningStats result_identical;
    result_identical.add(identical[i] ? 1.0 : 0.0);
    cell.scalars.emplace_back("serve_result_identical", result_identical);
    util::RunningStats ms;
    ms.add(request_ms[i]);
    cell.timings.emplace_back("serve_request_ms", ms);
    cell.wall_ms = request_ms[i];
    run.cells.push_back(std::move(cell));
  }
  // Suite-level aggregates ride on the first cell: the two gated scalars
  // the acceptance names, plus the warm/cold throughput as timings.
  const auto scalar_of = [](double x) {
    util::RunningStats stats;
    stats.add(x);
    return stats;
  };
  const double count = static_cast<double>(jobs.size());
  run.cells.front().scalars.emplace_back("serve_jobs", scalar_of(count));
  run.cells.front().scalars.emplace_back(
      "serve_results_identical", scalar_of(static_cast<double>(identical_jobs)));
  const double warm_rps = count / (warm_total_ms / 1000.0);
  run.cells.front().timings.emplace_back("serve_warm_req_per_s",
                                         scalar_of(warm_rps));
  std::cout << "serve: " << jobs.size() << " warm jobs in "
            << util::format_double(warm_total_ms, 0) << " ms ("
            << util::format_double(warm_rps, 1) << " req/s)";
  if (cold_total_ms >= 0.0) {
    const double cold_rps = count / (cold_total_ms / 1000.0);
    run.cells.front().timings.emplace_back("serve_cold_req_per_s",
                                           scalar_of(cold_rps));
    run.cells.front().timings.emplace_back("serve_cold_total_ms",
                                           scalar_of(cold_total_ms));
    std::cout << "; cold launches: " << util::format_double(cold_total_ms, 0)
              << " ms (" << util::format_double(cold_rps, 1) << " req/s, warm "
              << util::format_double(cold_total_ms / warm_total_ms, 1)
              << "x faster)";
  } else {
    std::cout << "; cold comparison skipped (no runnable poqsim at "
              << options.poqsim << ")";
  }
  std::cout << '\n';
  run.total_wall_ms = warm_total_ms + std::max(cold_total_ms, 0.0);
  return run;
}

SuiteRun suite_megascale(const Options& options) {
  // Megascale stress gate: streaming workloads on sparse full-grid tori.
  // Each cell runs the balancing protocol in streaming mode — Poisson
  // arrivals drawn from a virtual pool of two million consumer pairs
  // (derived lazily from keyed streams; the pool is never materialized) —
  // for a fixed round budget on n = 10^4 and ~10^5 grids (quick; the
  // full run adds 10^6). The gated scalars include
  // `memory_bytes_per_node`, the deterministic logical footprint of the
  // sparse ledger + pair store + substrate: it holds the
  // O(nodes + edges + live pairs) memory discipline to 1e-9, so any
  // dense n^2 structure creeping back moves it by orders of magnitude
  // and fails the gate. Rounds/sec is derived into the cell timings
  // (wall time is never compared by --check). Budgets shrink as n grows
  // so every cell does comparable total work; arrivals/backlog/satisfied
  // gate the streaming pipeline itself at every scale.
  // The 10^4+ cells run in the supply-building regime: random consumer
  // pairs on a torus that size are ~50+ hops apart, so no request
  // completes within a CI budget — they gate memory, arrivals, and the
  // swap kernels. The n = 49 anchor cell is small enough that the head
  // of the queue is actually served, gating the whole streaming
  // consumption path (arrival -> head_pair -> consume -> oracle hops ->
  // backlog) including both overhead denominators.
  struct Cell {
    std::size_t nodes;
    std::int64_t rounds;
    std::int64_t requests;  // 0 = run the full round budget
  };
  std::vector<Cell> cells = {
      {49, 2000, 300}, {10000, 120, 0}, {99856, 24, 0}};  // 7^2/100^2/316^2
  if (!options.quick) cells.push_back({1000000, 8, 0});   // 1000^2
  std::vector<scenario::ScenarioSpec> grid;
  for (const Cell& cell : cells) {
    scenario::ScenarioSpec spec;
    spec.protocol = "balancing";
    spec.topology = "full-grid";
    spec.nodes = cell.nodes;
    spec.consumer_pairs = 4;  // vestigial fixed sequence; streaming ignores it
    spec.requests = 1;
    spec.seed = 41;
    spec.knobs["arrival-rate"] = cell.nodes == 49 ? 2.0 : 8.0;
    spec.knobs["consumer-pool"] = std::int64_t{2000000};
    spec.knobs["max-rounds"] = cell.rounds;
    if (cell.requests > 0) spec.knobs["max-requests"] = cell.requests;
    grid.push_back(std::move(spec));
  }
  Options serial = options;
  serial.threads = 1;  // one cell at a time: honest rounds/sec
  SuiteRun run = run_grid("megascale", std::move(grid), 1, serial);
  for (scenario::CellAggregate& cell : run.cells) {
    if (!cell.has("rounds") || cell.wall_ms <= 0.0) continue;
    const double rounds = cell.at("rounds").mean();
    const double rounds_per_s = rounds / (cell.wall_ms / 1000.0);
    util::RunningStats stats;
    stats.add(rounds_per_s);
    cell.timings.emplace_back("rounds_per_s", stats);
    std::cout << "megascale: n=" << cell.spec.nodes << ": "
              << util::format_double(rounds, 0) << " rounds in "
              << util::format_double(cell.wall_ms, 0) << " ms ("
              << util::format_double(rounds_per_s, 1) << " rounds/s, "
              << util::format_double(
                     cell.has("memory_bytes_per_node")
                         ? cell.at("memory_bytes_per_node").mean()
                         : 0.0,
                     0)
              << " bytes/node)\n";
  }
  return run;
}

SuiteRun suite_faults(const Options& options) {
  // Fault-injection gate: path-oblivious balancing vs the planned-path
  // baseline under *identical* churn (same topology, workload, seed and
  // fault streams), three regimes, each a balancing/planned cell pair:
  //   * scripted_arc_outage — a cycle with one edge scripted down for the
  //     middle 80% of the budget. Planned routes shortest arcs on the
  //     static graph, so connections crossing the dead edge clog its
  //     window until link-up; balancing is path-oblivious and keeps
  //     consuming chains the long way around. This is the headline cell:
  //     the committed baseline pins balancing's delivered_under_fault
  //     well above planned's.
  //   * link_churn — stochastic link flapping (no crashes, nothing
  //     purged): both protocols degrade roughly with availability.
  //   * full_churn — mild node + link churn plus rate degradation;
  //     crashes purge stored pairs, exercising every fault code path.
  // Keyed fault streams make every cell bit-reproducible, so the gate
  // runs at rel-tol 1e-9 like the other determinism-grade suites; the
  // backlog never drains, making satisfied/delivered throughput within
  // the fixed budget the comparable quantity.
  const std::int64_t budget = options.quick ? 3000 : 6000;
  struct Regime {
    const char* label;
    const char* topology;
    bool scripted;
    double link_mtbf, link_mttr, node_mtbf, node_mttr, degradation;
  };
  const std::vector<Regime> regimes = {
      {"scripted_arc_outage", "cycle", true, 0.0, 10.0, 0.0, 10.0, 0.0},
      {"link_churn", "random-grid", false, 60.0, 30.0, 0.0, 10.0, 0.0},
      {"full_churn", "random-grid", false, 150.0, 5.0, 200.0, 6.0, 0.1},
  };
  std::vector<scenario::ScenarioSpec> grid;
  for (const Regime& regime : regimes) {
    for (const char* protocol : {"balancing", "planned"}) {
      scenario::ScenarioSpec spec;
      spec.protocol = protocol;
      spec.topology = regime.topology;
      spec.nodes = 25;
      spec.consumer_pairs = 20;
      spec.requests = 100000;  // backlog never drains within the budget
      spec.seed = 4200;
      spec.knobs["max-rounds"] = budget;
      if (std::string(protocol) == "planned") {
        spec.knobs["window"] = std::int64_t{4};
        spec.knobs["mode"] = std::string("oriented");
      }
      if (regime.scripted) {
        spec.faults.push_back({static_cast<std::uint32_t>(budget / 10),
                               sim::FaultEventKind::kLinkDown, 0, 0, 1, 1.0});
        spec.faults.push_back({static_cast<std::uint32_t>(budget - budget / 10),
                               sim::FaultEventKind::kLinkUp, 0, 0, 1, 1.0});
      } else {
        spec.knobs["fault-link-mtbf"] = regime.link_mtbf;
        spec.knobs["fault-link-mttr"] = regime.link_mttr;
        if (regime.node_mtbf > 0.0) {
          spec.knobs["fault-node-mtbf"] = regime.node_mtbf;
          spec.knobs["fault-node-mttr"] = regime.node_mttr;
        }
        if (regime.degradation > 0.0) {
          spec.knobs["fault-rate-degradation"] = regime.degradation;
        }
      }
      grid.push_back(std::move(spec));
    }
  }
  SuiteRun run = run_grid("faults", std::move(grid), /*seeds=*/1, options);
  // Surface the per-regime comparison and pin it as a gated scalar on the
  // balancing cell: the margin must stay positive for the headline regime.
  for (std::size_t i = 0; i + 1 < run.cells.size(); i += 2) {
    scenario::CellAggregate& balancing = run.cells[i];
    const scenario::CellAggregate& planned = run.cells[i + 1];
    if (!balancing.has("delivered_under_fault") ||
        !planned.has("delivered_under_fault")) {
      continue;
    }
    const double ours = balancing.at("delivered_under_fault").mean();
    const double theirs = planned.at("delivered_under_fault").mean();
    util::RunningStats margin;
    margin.add(ours - theirs);
    balancing.scalars.emplace_back("delivered_margin_vs_planned", margin);
    std::cout << "faults: " << regimes[i / 2].label
              << ": balancing delivered " << util::format_double(ours, 0)
              << " vs planned " << util::format_double(theirs, 0)
              << " under identical churn\n";
  }
  return run;
}

using SuiteFn = SuiteRun (*)(const Options&);
const std::vector<std::pair<std::string, SuiteFn>> kSuites = {
    {"fig4_overhead_vs_distillation", suite_fig4},
    {"fig5_overhead_vs_nodes", suite_fig5},
    {"ablation_variants", suite_ablation_variants},
    {"baseline_comparison", suite_baseline_comparison},
    {"ablation_knowledge", suite_ablation_knowledge},
    {"fidelity_decay", suite_fidelity_decay},
    {"ablation_latency", suite_ablation_latency},
    {"ablation_rates", suite_ablation_rates},
    {"lp_steady_state", suite_lp_steady_state},
    {"parallel_scaling", suite_parallel_scaling},
    {"hotpath", suite_hotpath},
    {"deck", suite_deck},
    {"async_routing", suite_async_routing},
    {"serve", suite_serve},
    {"megascale", suite_megascale},
    {"faults", suite_faults},
};

// ---------------------------------------------------------------------------
// Regression check (--check)
// ---------------------------------------------------------------------------

/// A cell spec without its execution knob (`threads`), which
/// never changes results (the determinism contract), so a run at
/// --intra-threads K is checked against a baseline recorded at 1.
util::json::Value without_execution_knobs(const util::json::Value& spec) {
  util::json::Value out = util::json::Value::object();
  for (const auto& [name, value] : spec.members()) {
    if (name != "knobs") {
      out.set(name, value);
      continue;
    }
    util::json::Value knobs = util::json::Value::object();
    for (const auto& [knob, knob_value] : value.members()) {
      if (knob != "threads") knobs.set(knob, knob_value);
    }
    out.set(name, std::move(knobs));
  }
  return out;
}

/// Compare one suite's cells against a committed baseline. Cells must
/// match pairwise by spec, execution knobs aside; every baseline metric
/// mean must agree within the relative tolerance. Returns the number of
/// violations (0 = pass).
int check_against_baseline(const SuiteRun& run, const util::json::Value& baseline,
                           double rel_tol) {
  int violations = 0;
  const auto complain = [&](const std::string& message) {
    std::cerr << "CHECK FAIL: " << message << '\n';
    ++violations;
  };
  const util::json::Value& cells = baseline.at("cells");
  if (cells.size() != run.cells.size()) {
    complain(util::str_cat("cell count mismatch: baseline has ", cells.size(),
                           ", run produced ", run.cells.size()));
    return violations;
  }
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const util::json::Value& base_cell = cells.at(i);
    const util::json::Value current_spec = run.cells[i].spec.to_json();
    if (!(without_execution_knobs(base_cell.at("spec")) ==
          without_execution_knobs(current_spec))) {
      complain(util::str_cat("cell ", i, " spec mismatch (baseline ",
                             base_cell.at("spec").dump(), " vs ",
                             current_spec.dump(), ")"));
      continue;
    }
    for (const auto& [name, summary] : base_cell.at("metrics").members()) {
      const double base_mean = summary.at("mean").as_number();
      if (!run.cells[i].has(name)) {
        complain(util::str_cat("cell ", i, ": metric '", name,
                               "' missing from this run"));
        continue;
      }
      const double mean = run.cells[i].at(name).mean();
      const double scale = std::max(std::abs(base_mean), 1e-9);
      if (std::abs(mean - base_mean) > rel_tol * scale) {
        complain(util::str_cat("cell ", i, " (", run.cells[i].spec.protocol, " ",
                               run.cells[i].spec.topology, " n=",
                               run.cells[i].spec.nodes, "): metric '", name,
                               "' drifted: baseline ", base_mean, ", got ", mean,
                               " (rel-tol ", rel_tol, ")"));
      }
    }
  }
  return violations;
}

int run_check(const std::vector<SuiteRun>& runs, const Options& options) {
  std::ifstream file(options.check_path);
  if (!file) throw PreconditionError("cannot read baseline " + options.check_path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const util::json::Value baseline = util::json::Value::parse(buffer.str());
  const std::string bench_name = baseline.at("bench").as_string();
  if (static_cast<int>(baseline.at("schema_version").as_number()) !=
      kSchemaVersion) {
    throw PreconditionError("baseline schema_version mismatch; regenerate " +
                            options.check_path);
  }
  // A baseline only gates the grid scale it was recorded at: quick
  // baselines cannot vouch for the full paper-scale grids (and vice
  // versa) — their cells are different specs. Skip explicitly rather
  // than failing on the inevitable spec mismatch, so a full-scale run
  // against a quick-only baseline reads as "not gated", not "regressed".
  const bool baseline_quick = baseline.at("config").at("quick").as_bool();
  if (baseline_quick != options.quick) {
    std::cout << "CHECK SKIP: " << bench_name << ": baseline "
              << options.check_path << " was recorded with "
              << (baseline_quick ? "--quick" : "full-scale") << " grids but "
              << "this run used " << (options.quick ? "--quick" : "full-scale")
              << " grids; commit a matching baseline to gate this scale\n";
    return 0;
  }
  for (const SuiteRun& run : runs) {
    if (run.name != bench_name) continue;
    const int violations =
        check_against_baseline(run, baseline, options.rel_tol);
    if (violations == 0) {
      std::cout << "CHECK PASS: " << run.name << " matches "
                << options.check_path << " (rel-tol " << options.rel_tol << ", "
                << run.cells.size() << " cells)\n";
      return 0;
    }
    std::cerr << "CHECK FAIL: " << run.name << ": " << violations
              << " violation(s) against " << options.check_path << '\n';
    return 1;
  }
  throw PreconditionError("baseline bench '" + bench_name +
                          "' was not run; pass a matching --suite");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);  // skips argv[0] itself
    if (args.has("help")) {
      std::cout
          << "usage: run_benches [--quick] [--out-dir DIR] [--suite NAME]\n"
             "                   [--threads N] [--intra-threads K]\n"
             "                   [--check BASELINE.json] [--rel-tol X]\n"
             "                   [--poqsim PATH]\n"
             "Runs the paper's figure/ablation sweeps and writes unified "
             "BENCH_*.json.\nsuites:\n";
      for (const auto& [name, fn] : kSuites) std::cout << "  " << name << '\n';
      return 0;
    }
    Options options;
    options.quick = args.get_bool("quick", false);
    options.out_dir = args.get_string("out-dir", ".");
    options.suite_filter = args.get_string("suite", "");
    const std::int64_t threads = args.get_int("threads", 0);
    if (threads < 0 || threads > 4096) {
      throw poq::PreconditionError("--threads must be in [0, 4096] (got " +
                                   std::to_string(threads) + ")");
    }
    options.threads = static_cast<unsigned>(threads);
    const std::int64_t intra_threads = args.get_int("intra-threads", 1);
    if (intra_threads < 0 || intra_threads > 4096) {
      throw poq::PreconditionError("--intra-threads must be in [0, 4096] (got " +
                                   std::to_string(intra_threads) + ")");
    }
    options.intra_threads =
        intra_threads == 0 ? 0 : static_cast<unsigned>(intra_threads);
    options.check_path = args.get_string("check", "");
    options.rel_tol = args.get_double("rel-tol", 1e-9);
    options.poqsim = args.get_string("poqsim", "./poqsim");
    const auto unused = args.unused();
    if (!unused.empty()) {
      throw poq::PreconditionError("unknown option --" + unused.front());
    }
    if (!args.positional().empty()) {
      throw poq::PreconditionError("unexpected argument '" +
                                   args.positional().front() +
                                   "' (options are written --name value)");
    }

    std::vector<std::pair<std::string, SuiteFn>> selected;
    for (const auto& entry : kSuites) {
      if (options.suite_filter.empty() ||
          entry.first.find(options.suite_filter) != std::string::npos) {
        selected.push_back(entry);
      }
    }
    if (selected.empty()) {
      throw poq::PreconditionError("--suite '" + options.suite_filter +
                                   "' matches no suite (see --help)");
    }

    std::vector<SuiteRun> runs;
    for (const auto& [name, fn] : selected) {
      runs.push_back(fn(options));
      write_suite(runs.back(), options);
    }
    if (!options.check_path.empty()) return run_check(runs, options);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
