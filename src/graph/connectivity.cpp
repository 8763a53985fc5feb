#include "graph/connectivity.hpp"

#include "util/error.hpp"

namespace poq::graph {

DisjointSets::DisjointSets(std::size_t count)
    : parent_(count), size_(count, 1), sets_(count) {
  for (std::size_t i = 0; i < count; ++i) parent_[i] = i;
}

std::size_t DisjointSets::find(std::size_t x) {
  require(x < parent_.size(), "DisjointSets::find: index out of range");
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool DisjointSets::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --sets_;
  return true;
}

bool is_connected(const Graph& graph) {
  if (graph.node_count() <= 1) return true;
  DisjointSets sets(graph.node_count());
  for (const Edge& e : graph.edges()) sets.unite(e.a(), e.b());
  return sets.set_count() == 1;
}

}  // namespace poq::graph
