// Shared vocabulary types for the core protocols.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/graph.hpp"

namespace poq::core {

using NodeId = graph::NodeId;

/// Unordered node pair; Bell pairs are interchangeable per endpoint pair
/// (§1: any pair between the same endpoints is "[N1, N2]"), so all keys
/// are normalized with first <= second.
struct NodePair {
  NodeId first = 0;
  NodeId second = 0;

  NodePair() = default;
  NodePair(NodeId a, NodeId b) : first(a < b ? a : b), second(a < b ? b : a) {}

  friend bool operator==(const NodePair&, const NodePair&) = default;
  friend auto operator<=>(const NodePair&, const NodePair&) = default;
};

struct NodePairHash {
  std::size_t operator()(const NodePair& pair) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(pair.first) << 32) | pair.second);
  }
};

}  // namespace poq::core
