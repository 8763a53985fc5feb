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

// A grain g splits the range into ceil(items / g) chunks, and every chunk
// runs exactly once at every thread count.
TEST(ParallelTickEngine, RunsEveryShardExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ParallelTickEngine engine(threads);
    for (const std::size_t grain : {1u, 4u, 7u, 23u, 2048u}) {
      const std::size_t items = 23;
      std::vector<std::atomic<int>> hits(items);
      std::atomic<std::size_t> chunks{0};
      engine.run_chunks(items, grain, nullptr,
                        [&](std::size_t begin, std::size_t end, unsigned) {
                          ++chunks;
                          for (std::size_t i = begin; i < end; ++i) ++hits[i];
                        });
      EXPECT_EQ(chunks.load(), (items + grain - 1) / grain);
      for (const auto& hit : hits) {
        EXPECT_EQ(hit.load(), 1) << threads << " threads, grain " << grain;
      }
    }
  }
}

TEST(ParallelTickEngine, ReusableAcrossManyPhases) {
  ParallelTickEngine engine(4);
  std::atomic<std::uint64_t> total{0};
  for (int phase = 0; phase < 200; ++phase) {
    engine.run_chunks(7, 1, nullptr,
                      [&](std::size_t begin, std::size_t, unsigned) {
                        total += begin;
                      });
  }
  EXPECT_EQ(total.load(), 200u * (0 + 1 + 2 + 3 + 4 + 5 + 6));
}

TEST(ParallelTickEngine, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ParallelTickEngine::resolve_threads(0), 1u);
  EXPECT_EQ(ParallelTickEngine::resolve_threads(3), 3u);
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

// An empty range runs no chunk at any of the kernels' grains.
TEST(ParallelTickEngine, ZeroShardsIsANoop) {
  ParallelTickEngine engine(2);
  for (const std::size_t grain : {grain::kGenerate, grain::kDecide,
                                  grain::kDecohere, grain::kBelief}) {
    bool touched = false;
    engine.run_chunks(0, grain, nullptr,
                      [&](std::size_t, std::size_t, unsigned) { touched = true; });
    EXPECT_FALSE(touched) << "grain " << grain;
  }
}

// A failing chunk does not cancel the rest of the dispatch: every other
// chunk still runs before the first exception reaches the caller.
TEST(ParallelTickEngine, ShardExceptionsPropagateAfterDraining) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelTickEngine engine(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(engine.run_chunks(9, 1, nullptr,
                                   [&](std::size_t begin, std::size_t,
                                       unsigned) {
                                     if (begin == 4) {
                                       throw std::runtime_error("boom");
                                     }
                                     ++ran;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 8) << threads << " threads";
    // The engine must stay usable after a failed phase.
    std::atomic<int> count{0};
    engine.run_chunks(5, 1, nullptr,
                      [&](std::size_t, std::size_t, unsigned) { ++count; });
    EXPECT_EQ(count.load(), 5);
  }
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

}  // namespace
}  // namespace poq::sim
