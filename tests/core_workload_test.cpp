#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

TEST(Workload, DrawsDistinctPairs) {
  util::Rng rng(1);
  const Workload workload = make_uniform_workload(25, 35, 100, rng);
  EXPECT_EQ(workload.pairs.size(), 35u);
  std::set<NodePair> unique(workload.pairs.begin(), workload.pairs.end());
  EXPECT_EQ(unique.size(), 35u);
  for (const NodePair& pair : workload.pairs) {
    EXPECT_LT(pair.first, pair.second);
    EXPECT_LT(pair.second, 25u);
  }
}

TEST(Workload, SequenceIndexesPairs) {
  util::Rng rng(2);
  const Workload workload = make_uniform_workload(10, 5, 50, rng);
  EXPECT_EQ(workload.request_count(), 50u);
  for (std::uint32_t index : workload.sequence) EXPECT_LT(index, 5u);
}

TEST(Workload, CanDrawEveryPair) {
  util::Rng rng(3);
  const Workload workload = make_uniform_workload(6, 15, 1, rng);
  // C(6,2) = 15: drawing all pairs must enumerate each exactly once.
  std::set<NodePair> unique(workload.pairs.begin(), workload.pairs.end());
  EXPECT_EQ(unique.size(), 15u);
}

// The flat-index inversion must map uniformly: every pair of a small node
// set should be drawn with roughly equal frequency across many draws.
TEST(Workload, PairSelectionIsUniform) {
  util::Rng rng(4);
  std::map<NodePair, int> hits;
  const int trials = 6000;
  for (int t = 0; t < trials; ++t) {
    const Workload workload = make_uniform_workload(8, 1, 1, rng);
    ++hits[workload.pairs[0]];
  }
  EXPECT_EQ(hits.size(), 28u);  // C(8,2): every pair seen
  for (const auto& [pair, count] : hits) {
    EXPECT_NEAR(count, trials / 28.0, trials / 28.0 * 0.45)
        << "(" << pair.first << "," << pair.second << ")";
  }
}

TEST(Workload, RequestSequenceRoughlyUniform) {
  util::Rng rng(5);
  const Workload workload = make_uniform_workload(10, 4, 40000, rng);
  std::vector<int> counts(4, 0);
  for (std::uint32_t index : workload.sequence) ++counts[index];
  for (int count : counts) EXPECT_NEAR(count, 10000, 500);
}

TEST(Workload, RejectsBadArguments) {
  util::Rng rng(6);
  EXPECT_THROW(make_uniform_workload(1, 1, 1, rng), PreconditionError);
  EXPECT_THROW(make_uniform_workload(5, 0, 1, rng), PreconditionError);
  EXPECT_THROW(make_uniform_workload(5, 11, 1, rng), PreconditionError);  // > C(5,2)
}

TEST(Workload, DeterministicGivenRng) {
  util::Rng a(9);
  util::Rng b(9);
  const Workload first = make_uniform_workload(20, 10, 30, a);
  const Workload second = make_uniform_workload(20, 10, 30, b);
  EXPECT_EQ(first.pairs.size(), second.pairs.size());
  for (std::size_t i = 0; i < first.pairs.size(); ++i) {
    EXPECT_EQ(first.pairs[i], second.pairs[i]);
  }
  EXPECT_EQ(first.sequence, second.sequence);
}

}  // namespace
}  // namespace poq::core
