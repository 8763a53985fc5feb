// Consumption workload construction (§5).
//
// The paper draws 35 consumer pairs from the |N| choose 2 possible pairs
// and builds "a sequence of consumption requests from these pairs that
// must be satisfied in the order of the sequence" — in-order (head-of-
// line) semantics chosen deliberately "to prevent biasing the cost toward
// easy-to-satisfy pair requests".
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace poq::core {

/// A consumption workload: the consumer pair set and the request sequence
/// (indices into `pairs`).
struct Workload {
  std::vector<NodePair> pairs;
  std::vector<std::uint32_t> sequence;  // request i consumes pairs[sequence[i]]

  [[nodiscard]] const NodePair& request(std::size_t i) const {
    return pairs[sequence[i]];
  }
  [[nodiscard]] std::size_t request_count() const { return sequence.size(); }
};

/// Draw `pair_count` distinct consumer pairs uniformly from all n-choose-2
/// pairs of `node_count` nodes, then a uniform request sequence of
/// `request_count` draws over those pairs. Requires pair_count <= C(n,2).
[[nodiscard]] Workload make_uniform_workload(std::size_t node_count,
                                             std::size_t pair_count,
                                             std::size_t request_count,
                                             util::Rng& rng);

}  // namespace poq::core
