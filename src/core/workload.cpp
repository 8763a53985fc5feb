#include "core/workload.hpp"

#include <unordered_set>

#include "util/error.hpp"

namespace poq::core {

Workload make_uniform_workload(std::size_t node_count, std::size_t pair_count,
                               std::size_t request_count, util::Rng& rng) {
  require(node_count >= 2, "make_uniform_workload: need >= 2 nodes");
  const std::size_t all_pairs = node_count * (node_count - 1) / 2;
  require(pair_count >= 1 && pair_count <= all_pairs,
          "make_uniform_workload: pair_count must be in [1, C(n,2)]");

  // Enumerate pair index -> (x, y) lazily via a flat index sample. Small
  // pair spaces keep the exact historical draw sequence (pool shuffle);
  // megascale ones rejection-sample distinct flat indices instead — the
  // pool itself (C(n,2) entries, ~40 GB at n = 10^5) is never built.
  constexpr std::size_t kDensePairSampleLimit = std::size_t{1} << 20;
  std::vector<std::size_t> chosen;
  if (all_pairs <= kDensePairSampleLimit) {
    chosen = rng.sample_indices(all_pairs, pair_count);
  } else {
    std::unordered_set<std::size_t> seen;
    seen.reserve(pair_count * 2);
    chosen.reserve(pair_count);
    while (chosen.size() < pair_count) {
      const std::size_t flat = rng.uniform_index(all_pairs);
      if (seen.insert(flat).second) chosen.push_back(flat);
    }
  }
  Workload workload;
  workload.pairs.reserve(pair_count);
  for (std::size_t flat : chosen) {
    // Invert the triangular index: flat = x*(2n - x - 1)/2 + (y - x - 1).
    std::size_t x = 0;
    std::size_t remaining = flat;
    while (remaining >= node_count - 1 - x) {
      remaining -= node_count - 1 - x;
      ++x;
    }
    const std::size_t y = x + 1 + remaining;
    workload.pairs.emplace_back(static_cast<NodeId>(x), static_cast<NodeId>(y));
  }

  workload.sequence.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    workload.sequence.push_back(
        static_cast<std::uint32_t>(rng.uniform_index(pair_count)));
  }
  return workload;
}

}  // namespace poq::core
