// perfbench's workloads. Each drives a real `poqsim serve` daemon with a
// job stream made from the seed, checks the outputs, and reports either
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string poqsim;    // path of the poqsim binary
  std::string work_dir;  // relative working directory for specs, sockets, spans
  unsigned cores = 1;    // nproc: threads of the batch re-runs in the output check
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed above the result line
};

/// Fixed workload parameters (README.md and BENCHMARK.json quote them).
/// One worker and one client keep exactly one job in flight, so the
/// daemon's CPU time between a submit and its job_done is that job's.
inline constexpr unsigned kServeWorkers = 1;
/// Tails by the tail rule at each workload's job count in a 45 s window:
/// serve_converge completes 1000 to 9999 jobs, serve_paper 200 to 999.
inline constexpr double kConvergeTailPercentile = 99.0;
inline constexpr double kPaperTailPercentile = 95.0;

/// serve_converge: balancing-family runs to completion at n 25-64.
[[nodiscard]] std::vector<poq::scenario::ScenarioSpec> converge_deck();
/// serve_paper: the same family at the paper's largest scale, n 49-100.
/// Every cell sets the `threads` knob.
[[nodiscard]] std::vector<poq::scenario::ScenarioSpec> paper_deck();

/// Run one workload dealt from `deck`: the warm-up prefix is one whole
/// deck, and the tail metric is `tail_percentile` of the job times.
[[nodiscard]] Report run_served(const Options& options,
                                const std::vector<poq::scenario::ScenarioSpec>& deck,
                                double tail_percentile);

}  // namespace perfbench
