// Connectivity queries: union-find and a whole-graph connectivity test.
//
// The paper's grid topology construction ("generation edges are added
// uniformly at random on the grid until the underlying generation graph
// connects all nodes", §5) needs an incremental connectivity structure;
// DisjointSets provides it in near-constant amortized time.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace poq::graph {

/// Union-find with path halving and union by size.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t count);

  /// Representative of x's set.
  [[nodiscard]] std::size_t find(std::size_t x);

  /// Merge the sets of a and b; returns false if already joined.
  bool unite(std::size_t a, std::size_t b);

  /// Number of disjoint sets remaining.
  [[nodiscard]] std::size_t set_count() const { return sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t sets_;
};

/// True when every node is reachable from every other (the paper's
/// prerequisite for network-wide Bell-pair construction, §3).
[[nodiscard]] bool is_connected(const Graph& graph);

}  // namespace poq::graph
