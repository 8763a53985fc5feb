#include "sim/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace poq::sim {
namespace {

TEST(ShardRange, PartitionsExactlyAndContiguously) {
  for (const std::size_t items : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 7u, 16u, 32u}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] =
            ParallelTickEngine::shard_range(items, shards, s);
        EXPECT_EQ(begin, previous_end);
        EXPECT_LE(begin, end);
        covered += end - begin;
        previous_end = end;
      }
      EXPECT_EQ(covered, items) << items << " items over " << shards;
      EXPECT_EQ(previous_end, items);
    }
  }
}

TEST(ShardRange, MoreShardsThanItemsLeavesTrailingShardsEmpty) {
  const auto [b0, e0] = ParallelTickEngine::shard_range(3, 8, 0);
  EXPECT_EQ(e0 - b0, 1u);
  const auto [b7, e7] = ParallelTickEngine::shard_range(3, 8, 7);
  EXPECT_EQ(b7, e7);  // empty
}

TEST(ShardRange, RejectsBadArguments) {
  EXPECT_THROW((void)ParallelTickEngine::shard_range(4, 0, 0), PreconditionError);
  EXPECT_THROW((void)ParallelTickEngine::shard_range(4, 2, 2), PreconditionError);
}

TEST(ParallelTickEngine, RunsEveryShardExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ParallelTickEngine engine(threads);
    std::vector<std::atomic<int>> hits(23);
    engine.run_shards(hits.size(), [&](std::size_t shard) { ++hits[shard]; });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ParallelTickEngine, ReusableAcrossManyPhases) {
  ParallelTickEngine engine(4);
  std::atomic<std::uint64_t> total{0};
  for (int phase = 0; phase < 200; ++phase) {
    engine.run_shards(7, [&](std::size_t shard) { total += shard; });
  }
  EXPECT_EQ(total.load(), 200u * (0 + 1 + 2 + 3 + 4 + 5 + 6));
}

TEST(ParallelTickEngine, ZeroShardsIsANoop) {
  ParallelTickEngine engine(2);
  bool touched = false;
  engine.run_shards(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelTickEngine, ShardExceptionsPropagateAfterDraining) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelTickEngine engine(threads);
    EXPECT_THROW(
        engine.run_shards(9,
                          [&](std::size_t shard) {
                            if (shard == 4) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The engine must stay usable after a failed phase.
    std::atomic<int> count{0};
    engine.run_shards(5, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 5);
  }
}

TEST(ParallelTickEngine, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ParallelTickEngine::resolve_threads(0), 1u);
  EXPECT_EQ(ParallelTickEngine::resolve_threads(3), 3u);
}

TEST(ParallelTickEngine, ResolveShardsAutoIsBoundedAndExplicitPassesThrough) {
  ParallelTickEngine engine(2);
  EXPECT_EQ(engine.resolve_shards(5, 100), 5u);
  const std::size_t auto_shards = engine.resolve_shards(0, 100);
  EXPECT_GE(auto_shards, 1u);
  EXPECT_LE(auto_shards, 100u);
  // Tiny inputs never get more auto shards than items.
  EXPECT_LE(engine.resolve_shards(0, 3), 3u);
}

TEST(ParallelTickEngine, RunChunksCoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ParallelTickEngine engine(threads);
    for (const std::size_t grain : {1u, 3u, 64u, 1000u}) {
      const std::size_t items = 137;
      std::vector<std::atomic<int>> hits(items);
      engine.run_chunks(items, grain, nullptr,
                        [&](std::size_t begin, std::size_t end, unsigned) {
                          // Chunk boundaries are canonical multiples of the
                          // grain regardless of which worker ran the chunk.
                          EXPECT_EQ(begin % grain, 0u);
                          EXPECT_LE(end - begin, grain);
                          for (std::size_t i = begin; i < end; ++i) ++hits[i];
                        });
      for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1) << threads << " threads, grain " << grain;
      }
    }
  }
}

TEST(ParallelTickEngine, RunChunksWorkerIndexStaysBelowThreadCount) {
  for (const unsigned threads : {1u, 3u}) {
    ParallelTickEngine engine(threads);
    std::atomic<bool> in_range{true};
    engine.run_chunks(500, 7, nullptr,
                      [&](std::size_t, std::size_t, unsigned worker) {
                        if (worker >= engine.thread_count()) in_range = false;
                      });
    EXPECT_TRUE(in_range.load());
  }
}

TEST(ParallelTickEngine, RunChunksZeroItemsIsANoop) {
  ParallelTickEngine engine(2);
  bool touched = false;
  engine.run_chunks(0, 8, nullptr,
                    [&](std::size_t, std::size_t, unsigned) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelTickEngine, RunChunksRejectsZeroGrain) {
  ParallelTickEngine engine(2);
  EXPECT_THROW(
      engine.run_chunks(4, 0, nullptr,
                        [](std::size_t, std::size_t, unsigned) {}),
      PreconditionError);
}

TEST(ParallelTickEngine, RunChunksExceptionsPropagateAndEngineStaysUsable) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelTickEngine engine(threads);
    EXPECT_THROW(engine.run_chunks(90, 10, nullptr,
                                   [&](std::size_t begin, std::size_t,
                                       unsigned) {
                                     if (begin == 40) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    std::atomic<int> count{0};
    engine.run_chunks(30, 4, nullptr,
                      [&](std::size_t begin, std::size_t end, unsigned) {
                        count += static_cast<int>(end - begin);
                      });
    EXPECT_EQ(count.load(), 30);
  }
}

TEST(ParallelTickEngine, RunChunksAccumulatesChunkLoad) {
  ParallelTickEngine engine(2);
  ChunkLoad load;
  engine.run_chunks(100, 16, &load,
                    [](std::size_t begin, std::size_t end, unsigned) {
                      volatile std::uint64_t sink = 0;
                      for (std::size_t i = begin; i < end * 50; ++i) {
                        sink = sink + i;
                      }
                    });
  EXPECT_EQ(load.chunks, 7u);  // ceil(100 / 16)
  // One dispatch: its slowest chunk times its 7 chunks bounds the total.
  EXPECT_GE(load.weighted_max_ns, load.total_ns);
  EXPECT_GT(load.total_ns, 0u);
  EXPECT_GE(load.imbalance(), 1.0);
}

// Imbalance is measured within each dispatch: single-chunk dispatches are
// perfectly even however much their work differs from one another.
TEST(ChunkLoad, SingleChunkDispatchesReportNoImbalance) {
  ParallelTickEngine engine(1);
  ChunkLoad load;
  const auto spin = [](std::size_t iterations) {
    return [iterations](std::size_t, std::size_t, unsigned) {
      volatile std::uint64_t sink = 0;
      for (std::size_t i = 0; i < iterations; ++i) sink = sink + i;
    };
  };
  engine.run_chunks(1, 1, &load, spin(100));
  engine.run_chunks(1, 1, &load, spin(1000000));
  EXPECT_EQ(load.chunks, 2u);
  EXPECT_EQ(load.imbalance(), 1.0);
}

TEST(ChunkLoad, EmptyLoadReportsZeroImbalance) {
  const ChunkLoad load;
  EXPECT_EQ(load.imbalance(), 0.0);
}

TEST(ParallelTickEngine, ResolveGrainDefaultsAndExplicitShardSplit) {
  // shards == 0 (auto): the kernel's default grain wins.
  EXPECT_EQ(ParallelTickEngine::resolve_grain(0, 100000, 2048), 2048u);
  EXPECT_EQ(ParallelTickEngine::resolve_grain(0, 5, 256), 256u);
  // Explicit shard counts keep their meaning: grain = ceil(items / shards).
  EXPECT_EQ(ParallelTickEngine::resolve_grain(4, 100, 2048), 25u);
  EXPECT_EQ(ParallelTickEngine::resolve_grain(3, 100, 2048), 34u);
  // Never rounds down to a zero grain.
  EXPECT_EQ(ParallelTickEngine::resolve_grain(16, 3, 2048), 1u);
  EXPECT_GE(ParallelTickEngine::resolve_grain(0, 10, 0), 1u);
}

}  // namespace
}  // namespace poq::sim
