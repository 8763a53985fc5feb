// The vertex-program substrate contract (docs/ARCHITECTURE.md): the
// canonical message merge makes every inbox fold in a fixed order —
// (deliver epoch, send phase, sender, per-sender send index) — for every
// threads setting and chunk grain. The claim is checked with deliberately
// order-sensitive folds, so a merge-order slip cannot cancel out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "sim/vertex_program.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::sim {
namespace {

// --- canonical message merge -------------------------------------------

/// One epoch's order-sensitive message workload: every vertex mails a
/// keyed pseudo-random batch to scattered targets at mixed delays, then a
/// serial phase mails a couple more. Receivers fold their inboxes with a
/// non-commutative hash, so any reordering changes the digest. Each
/// kernel callback (one per chunk) bumps `*chunks` when it is given.
std::uint64_t run_digest(std::size_t vertex_count, unsigned threads,
                         std::size_t grain,
                         std::atomic<std::size_t>* chunks = nullptr) {
  ParallelTickEngine pool(threads);
  VertexProgram<std::uint32_t> program(vertex_count, pool);
  std::vector<std::uint64_t> fold(vertex_count, 1469598103934665603ull);
  const auto n = static_cast<std::uint32_t>(vertex_count);
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    for (const std::uint32_t v : program.deliver(epoch)) {
      for (const std::uint32_t payload : program.inbox(v)) {
        fold[v] = fold[v] * 31 + payload;  // deliberately non-commutative
      }
    }
    program.run_kernel(vertex_count, grain, nullptr,
                       [&](std::size_t begin, std::size_t end,
                           VertexProgram<std::uint32_t>::Context& ctx) {
      if (chunks != nullptr) ++*chunks;
      for (std::size_t i = begin; i < end; ++i) {
        const auto v = static_cast<std::uint32_t>(i);
        util::Rng rng = util::Rng::keyed(41, 0x766d7478, epoch, v);
        const std::uint64_t sends = rng.uniform_index(4);
        for (std::uint64_t k = 0; k < sends; ++k) {
          const auto target =
              static_cast<std::uint32_t>(rng.uniform_index(vertex_count));
          // Delay 0 exercises the >= 1 clamp of parallel sends.
          ctx.send(target, k % 3, static_cast<std::uint32_t>(v * 1000 + k));
        }
      }
    });
    // Serial-phase sends append after the sealed kernel, in call order.
    program.send(static_cast<std::uint32_t>(epoch % vertex_count), 1,
                 static_cast<std::uint32_t>(900000 + epoch));
    program.send(n - 1, 2, static_cast<std::uint32_t>(800000 + epoch));
  }
  std::uint64_t digest = 0;
  for (const std::uint64_t f : fold) digest = digest * 1099511628211ull + f;
  return digest;
}

TEST(VertexProgram, MergeOrderIsCanonicalAcrossThreadsAndShards) {
  // The reference is one chunk on one thread; 200 vertices split at the
  // decide grain too.
  // The kernel callbacks are counted: 8 epochs of ceil(vertices / grain)
  // chunks each.
  for (const std::size_t vertices : {24u, 200u}) {
    const std::uint64_t reference = run_digest(vertices, 1, vertices);
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                      grain::kBelief, grain::kDecide}) {
        std::atomic<std::size_t> chunks{0};
        EXPECT_EQ(run_digest(vertices, threads, grain, &chunks), reference)
            << "digest drifted at vertices=" << vertices
            << " threads=" << threads << " grain=" << grain;
        EXPECT_EQ(chunks.load(), 8 * ((vertices + grain - 1) / grain));
      }
    }
  }
}

// A 1-thread pool runs every chunk inline on the caller: the sequential
// engine is the same code, not a separate path.
TEST(VertexProgram, SequentialEngineIsTheOneShardSpecialCase) {
  EXPECT_EQ(run_digest(24, 1, 24), run_digest(24, 4, 4));
}

TEST(VertexProgram, SerialSendRejectsSameEpochDelivery) {
  ParallelTickEngine pool(1);
  VertexProgram<int> program(4, pool);
  (void)program.deliver(0);
  EXPECT_THROW(program.send(2, 0, 7), PreconditionError);
  program.send(2, 1, 7);  // >= 1 is fine
  EXPECT_FALSE(program.idle());
}

TEST(VertexProgram, ParallelSendClampsToNextEpoch) {
  ParallelTickEngine pool(2);
  VertexProgram<int> program(4, pool);
  (void)program.deliver(0);
  program.run_kernel(4, 1, nullptr, [&](std::size_t begin, std::size_t,
                               VertexProgram<int>::Context& ctx) {
    if (begin == 0) ctx.send(3, 0, 42);  // clamped to delay 1
  });
  EXPECT_EQ(program.messages_sent(), 1u);
  const std::vector<std::uint32_t>& active = program.deliver(1);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], 3u);
  ASSERT_EQ(program.inbox(3).size(), 1u);
  EXPECT_EQ(program.inbox(3)[0], 42);
  EXPECT_EQ(program.messages_delivered(), 1u);
  EXPECT_TRUE(program.idle());
}

}  // namespace
}  // namespace poq::sim
