#include "bench_lib.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);  // 10 beyond p99.9
  EXPECT_EQ(tail_percentile(9999), 99.0);   // p99.9 leaves only 9
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 100.0);  // too few: the maximum
  EXPECT_EQ(tail_percentile(0), 100.0);
  EXPECT_EQ(percentile_label(99.9), "p99.9");
  EXPECT_EQ(percentile_label(95.0), "p95");
  EXPECT_EQ(percentile_label(100.0), "max");
}

TEST(TailRule, WorkloadTailsMatchTheirCounts) {
  // In the committed 45 s window, with one job in flight, serve_converge
  // completes 1000 to 9999 jobs (1600 to 2000 on the reference machine)
  // and serve_paper 200 to 999 (about 250).
  EXPECT_EQ(tail_percentile(1000), kConvergeTailPercentile);
  EXPECT_EQ(tail_percentile(9999), kConvergeTailPercentile);
  EXPECT_EQ(tail_percentile(200), kPaperTailPercentile);
  EXPECT_EQ(tail_percentile(999), kPaperTailPercentile);
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(values, 50), 3);
  EXPECT_EQ(percentile(values, 100), 5);
  EXPECT_EQ(percentile(values, 0), 1);
  EXPECT_EQ(percentile(values, 80), 4);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(JobStream, SameSeedGivesIdenticalStream) {
  for (const auto& deck : {converge_deck(), paper_deck()}) {
    JobStream a(deck, 7);
    JobStream b(deck, 7);
    JobStream other(deck, 8);
    bool differs = false;
    for (std::size_t i = 0; i < 200; ++i) {
      EXPECT_EQ(a.spec(i).to_json().dump(), b.spec(i).to_json().dump()) << i;
      EXPECT_EQ(a.cell(i), b.cell(i)) << i;
      differs = differs || a.spec(i).to_json().dump() != other.spec(i).to_json().dump();
    }
    EXPECT_TRUE(differs);
  }
}

TEST(JobStream, EveryDeckHoldsEachCellOnce) {
  for (const auto& cells : {converge_deck(), paper_deck()}) {
    const std::size_t size = cells.size();
    JobStream stream(cells, 3);
    for (std::size_t deck = 0; deck < 4; ++deck) {
      std::vector<int> seen(size, 0);
      for (std::size_t c = 0; c < size; ++c) ++seen[stream.cell(deck * size + c)];
      EXPECT_EQ(seen, std::vector<int>(size, 1));
    }
  }
}

TEST(JobStream, PaperCellsPinTheirThreads) {
  // The output check re-runs exactly the cells that set `threads` as
  // batch runs at threads = nproc.
  for (const auto& spec : paper_deck()) EXPECT_EQ(spec.knob_int("threads", 0), 1);
  for (const auto& spec : converge_deck()) EXPECT_FALSE(spec.has_knob("threads"));
}

TEST(JobStream, SeedsSurviveJsonRoundTrip) {
  JobStream stream(converge_deck(), 123456789);
  for (std::size_t i = 0; i < 64; ++i) {
    const poq::scenario::ScenarioSpec spec = stream.spec(i);
    EXPECT_LT(spec.seed, std::uint64_t{1} << 31);
    const auto back =
        poq::scenario::ScenarioSpec::from_json(poq::util::json::Value::parse(spec.to_json().dump()));
    EXPECT_EQ(back.seed, spec.seed);
  }
}

Span span(const char* name, std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  const std::vector<Span> spans = {
      span("job", 0, 100, -1),
      span("submit", 10, 30, 0),
      span("parse", 20, 25, 1),
      span("run", 40, 90, 0),
      span("parse", 80, 95, 3),  // runs past its parent: only 80..90 counts
      span("late", 60, 70, 0),   // overlaps "run": covered once
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 50 - 10);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(self[5], 10);
}

TEST(Spans, LaneNestsAndSummarizes) {
  const Clock::time_point epoch = Clock::now();
  Lane lane(true, epoch);
  {
    const Lane::Scope outer = lane.open("outer", 3);
    {
      Lane::Scope inner = lane.open("inner", 3);
      inner.set_count(42);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(lane.spans().size(), 2u);
  EXPECT_EQ(lane.spans()[1].parent, 0);
  EXPECT_EQ(lane.spans()[1].job, 3);
  const auto summary = summarize_spans({&lane});
  EXPECT_EQ(summary.at("inner").count, 42u);
  EXPECT_GE(summary.at("inner").total_ms, 2.0);
  EXPECT_LT(summary.at("outer").self_ms, summary.at("outer").total_ms);

  Lane off(false, epoch);
  { const Lane::Scope ignored = off.open("outer"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(ProgramOutput, ParsesPhaseTimings) {
  const std::string out =
      "completed=no rounds=6 satisfied=0 swaps=3999498\n"
      "pairs_generated=12000000 memory_bytes_per_node=247.9865 phase_ms.generate=594.548\n"
      "phase_ms.decide=845.334 phase_ms.commit=1490.575 phase_ms.decohere=0.000 "
      "shard_imbalance.decide=624.807\n";
  const auto values = parse_metric_output(out);
  EXPECT_EQ(values.count("completed"), 0u);
  EXPECT_EQ(values.at("rounds"), 6);
  EXPECT_EQ(values.at("swaps"), 3999498);
  EXPECT_EQ(values.at("memory_bytes_per_node"), 247.9865);
  EXPECT_EQ(values.at("shard_imbalance.decide"), 624.807);
  EXPECT_NEAR(phase_ms_total(values), 594.548 + 845.334 + 1490.575, 1e-9);
  EXPECT_THROW((void)parse_metric_output("rounds=6 garbage"), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
