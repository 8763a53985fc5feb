#include "graph/shortest_path.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace poq::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& graph, NodeId source) {
  require(source < graph.node_count(), "bfs_distances: source out of range");
  std::vector<std::uint32_t> dist(graph.node_count(), kUnreachable);
  dist[source] = 0;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : graph.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::optional<std::vector<NodeId>> shortest_path(const Graph& graph, NodeId source,
                                                 NodeId target) {
  require(source < graph.node_count() && target < graph.node_count(),
          "shortest_path: node out of range");
  if (source == target) return std::vector<NodeId>{source};
  std::vector<NodeId> parent(graph.node_count(), source);
  std::vector<bool> seen(graph.node_count(), false);
  seen[source] = true;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : graph.neighbors(u)) {  // ascending ids => deterministic ties
      if (seen[v]) continue;
      seen[v] = true;
      parent[v] = u;
      if (v == target) {
        std::vector<NodeId> path{target};
        for (NodeId at = target; at != source; at = parent[at]) {
          path.push_back(parent[at]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(v);
    }
  }
  return std::nullopt;
}

std::vector<std::vector<std::uint32_t>> all_pairs_distances(const Graph& graph) {
  std::vector<std::vector<std::uint32_t>> result;
  result.reserve(graph.node_count());
  for (std::size_t u = 0; u < graph.node_count(); ++u) {
    result.push_back(bfs_distances(graph, static_cast<NodeId>(u)));
  }
  return result;
}

DistanceOracle::DistanceOracle(const Graph& graph, std::size_t max_cached_rows)
    : graph_(&graph), max_rows_(max_cached_rows == 0 ? 1 : max_cached_rows) {}

const std::vector<std::uint32_t>& DistanceOracle::row(NodeId source) {
  if (dense_ready_) return dense_[source];
  const auto it = rows_.find(source);
  if (it != rows_.end()) return it->second;
  if (rows_.size() >= max_rows_) {
    rows_.erase(eviction_order_.front());
    eviction_order_.pop_front();
  }
  eviction_order_.push_back(source);
  return rows_.emplace(source, bfs_distances(*graph_, source)).first->second;
}

std::uint32_t DistanceOracle::distance(NodeId source, NodeId target) {
  return row(source)[target];
}

const std::vector<std::vector<std::uint32_t>>& DistanceOracle::dense() {
  if (!dense_ready_) {
    dense_ = all_pairs_distances(*graph_);
    dense_ready_ = true;
    rows_.clear();
    eviction_order_.clear();
  }
  return dense_;
}

std::uint64_t DistanceOracle::memory_bytes() const {
  const auto n = static_cast<std::uint64_t>(graph_->node_count());
  if (dense_ready_) return n * n * sizeof(std::uint32_t);
  // One cached row = n distances plus a fixed map-entry overhead.
  return rows_.size() * (n * sizeof(std::uint32_t) + 32);
}

}  // namespace poq::graph
