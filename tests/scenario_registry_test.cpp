#include "scenario/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/ledger.hpp"
#include "core/planned_path.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "scenario/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::scenario {
namespace {

ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = "random-grid";
  spec.nodes = 9;
  spec.consumer_pairs = 8;
  spec.requests = 5;
  spec.seed = 3;
  return spec;
}

TEST(Registry, AllSixSimulatorsPlusLpAreRegistered) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected : {"balancing", "planned", "hybrid", "gossip",
                               "distributed", "async_routing", "fidelity",
                               "lp"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing protocol " << expected;
  }
}

TEST(Registry, EveryProtocolRunsASmallScenario) {
  for (const std::string& name : registry().names()) {
    ScenarioSpec spec = small_spec(name);
    if (name == "distributed" || name == "fidelity") {
      spec.knobs["duration"] = 30.0;
    }
    const RunMetrics metrics = registry().run(name, spec);
    EXPECT_FALSE(metrics.scalars().empty()) << "protocol " << name;
  }
}

// A knob's default is written only in its KnobSpec, and the run body
// falls back to it when the spec leaves the knob unset. Running a
// protocol with no knobs must equal running it with every declared knob
// set to its declared default, metric for metric.
TEST(Registry, DeclaredKnobDefaultsMatchTheRunDefaults) {
  const std::vector<std::string> names = registry().names();
  EXPECT_EQ(names.size(), 8u);
  for (const std::string& name : names) {
    ScenarioSpec spec;
    spec.protocol = name;
    spec.topology = "cycle";
    spec.nodes = 16;
    const std::string bare = registry().run(name, spec).to_json(false).dump();
    for (const KnobSpec& knob : registry().find(name).knobs()) {
      spec.knobs[knob.name] = knob.default_value;
    }
    EXPECT_EQ(registry().run(name, spec).to_json(false).dump(), bare)
        << "protocol " << name << ": a declared knob default differs from the "
        << "value its run uses when the knob is absent";
  }
}

TEST(Registry, BalancingAdapterMatchesDirectSimulatorCall) {
  const ScenarioSpec spec = [] {
    ScenarioSpec s = small_spec("balancing");
    s.requests = 12;
    s.knobs["distillation"] = 2.0;
    s.knobs["max-rounds"] = std::int64_t{4000};
    return s;
  }();
  const RunMetrics metrics = registry().run("balancing", spec);

  // Rebuild the experiment by hand with the historical seeding discipline.
  util::Rng rng(spec.seed);
  const graph::Graph graph =
      graph::make_topology(graph::TopologyFamily::kRandomGrid, spec.nodes, rng);
  util::Rng workload_rng = rng.fork(42);
  const core::Workload workload = core::make_uniform_workload(
      spec.nodes, spec.consumer_pairs, spec.requests, workload_rng);
  core::BalancingConfig config;
  config.distillation = 2.0;
  config.max_rounds = 4000;
  config.seed = spec.seed;
  const core::BalancingResult direct = core::run_balancing(graph, workload, config);

  EXPECT_EQ(metrics.label("completed"), direct.completed ? "yes" : "no");
  EXPECT_EQ(metrics.scalar("rounds"), static_cast<double>(direct.rounds));
  EXPECT_EQ(metrics.scalar("swaps"), static_cast<double>(direct.swaps_performed));
  EXPECT_EQ(metrics.scalar("satisfied"),
            static_cast<double>(direct.requests_satisfied));
  if (direct.denominator_paper > 0.0) {
    EXPECT_DOUBLE_EQ(metrics.scalar("overhead_paper"),
                     direct.swap_overhead_paper());
  }
}

TEST(Registry, PlannedAdapterHonorsModeKnob) {
  ScenarioSpec spec = small_spec("planned");
  spec.knobs["mode"] = std::string("connectionless");
  const RunMetrics connectionless = registry().run("planned", spec);
  EXPECT_EQ(connectionless.label("mode"), "connectionless");
  spec.knobs["mode"] = std::string("sideways");
  EXPECT_THROW((void)registry().run("planned", spec), PreconditionError);
}

TEST(Registry, SameSpecSameMetrics) {
  const ScenarioSpec spec = small_spec("gossip");
  const RunMetrics a = registry().run("gossip", spec);
  const RunMetrics b = registry().run("gossip", spec);
  ASSERT_EQ(a.scalars().size(), b.scalars().size());
  for (std::size_t i = 0; i < a.scalars().size(); ++i) {
    EXPECT_EQ(a.scalars()[i].first, b.scalars()[i].first);
    EXPECT_EQ(a.scalars()[i].second, b.scalars()[i].second);  // bit-identical
  }
}

/// Whether running `protocol` with `knob` = `value` fails with a
/// PreconditionError that names the knob.
bool knob_rejected(const std::string& protocol, const std::string& knob,
                   const KnobValue& value) {
  ScenarioSpec spec = small_spec(protocol);
  spec.knobs[knob] = value;
  try {
    (void)registry().run(protocol, spec);
  } catch (const PreconditionError& error) {
    return std::string(error.what()).find("'" + knob + "'") != std::string::npos;
  }
  return false;
}

TEST(Registry, UnsignedKnobsRejectNegativeAndOversizedValues) {
  // A bare narrowing cast would wrap -1 to 2^32 - 1 (a fanout that never
  // finishes a round) and 2^32 + 1 to 1 (a one-round run).
  constexpr std::int64_t kWrapsToOne = (std::int64_t{1} << 32) + 1;
  const std::pair<const char*, const char*> knobs[] = {
      {"balancing", "max-rounds"},  {"balancing", "swap-rate"},
      {"planned", "max-rounds"},    {"planned", "window"},
      {"hybrid", "max-assist-hops"}, {"gossip", "fanout"},
      {"balancing", "threads"},
  };
  for (const auto& [protocol, knob] : knobs) {
    EXPECT_TRUE(knob_rejected(protocol, knob, std::int64_t{-1}))
        << protocol << " " << knob;
    EXPECT_TRUE(knob_rejected(protocol, knob, kWrapsToOne))
        << protocol << " " << knob;
  }
}

TEST(Registry, FaultKnobsAreCheckedEvenWhenFaultsAreOff) {
  // A negative or NaN mtbf/degradation makes FaultConfig::enabled()
  // false, so only a check independent of it stops a run that would go
  // ahead with faults silently off (or, on lp, a negative degradation
  // inflating every capacity).
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, std::vector<double>> bad_values[] = {
      {"fault-node-mtbf", {-1.0, kNan, kInf}},
      {"fault-node-mttr", {0.5, -1.0, kNan, kInf}},
      {"fault-link-mtbf", {-1.0, kNan, kInf}},
      {"fault-link-mttr", {0.5, -1.0, kNan, kInf}},
      {"fault-rate-degradation", {-0.5, 1.0, kNan}},
  };
  const std::vector<std::string> names = registry().names();
  ASSERT_EQ(names.size(), 8u);
  for (const std::string& protocol : names) {
    for (const auto& [knob, values] : bad_values) {
      for (const double value : values) {
        EXPECT_TRUE(knob_rejected(protocol, knob, value))
            << protocol << " accepted " << knob << " = " << value;
      }
    }
  }
}

// Every int knob's declared range is checked where specs enter:
// validate_knobs refuses one below the minimum and one above the maximum
// (where those fit in an int64), naming the knob, and accepts both
// bounds. Acceptance is checked by validating only, since a run at
// max-rounds = 2^32 - 1 would never end.
TEST(Registry, IntKnobRangesAreCheckedByValidation) {
  constexpr std::int64_t kLowest = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHighest = std::numeric_limits<std::int64_t>::max();
  // The validation error for `knob` = `value`, or "" when accepted.
  const auto error_for = [](const Protocol& protocol, const std::string& knob,
                            std::int64_t value) -> std::string {
    ScenarioSpec spec = small_spec(protocol.name());
    spec.knobs[knob] = value;
    try {
      registry().validate_knobs(protocol, spec);
    } catch (const PreconditionError& error) {
      return error.what();
    }
    return "";
  };
  std::size_t checked = 0;
  for (const std::string& name : registry().names()) {
    const Protocol& protocol = registry().find(name);
    for (const KnobSpec& knob : protocol.knobs()) {
      if (knob.type != KnobType::kInt) continue;
      ++checked;
      SCOPED_TRACE(name + " " + knob.name);
      // Every int knob lands in an unsigned field or sentinel, so each
      // declares a lower bound, and its default lies in its range.
      EXPECT_GT(knob.min, kLowest);
      const std::int64_t fallback = std::get<std::int64_t>(knob.default_value);
      EXPECT_LE(knob.min, fallback);
      EXPECT_GE(knob.max, fallback);
      EXPECT_EQ(error_for(protocol, knob.name, knob.min), "");
      EXPECT_EQ(error_for(protocol, knob.name, knob.max), "");
      const std::string quoted = "'" + knob.name + "'";
      if (knob.min > kLowest) {
        EXPECT_NE(error_for(protocol, knob.name, knob.min - 1).find(quoted),
                  std::string::npos);
      }
      if (knob.max < kHighest) {
        EXPECT_NE(error_for(protocol, knob.name, knob.max + 1).find(quoted),
                  std::string::npos);
      }
    }
  }
  EXPECT_EQ(checked, 26u);
}

TEST(Registry, PoissonRateKnobsMustBeFiniteAndNonNegative) {
  // A negative or NaN rate would fail deep in Rng::poisson with a message
  // naming no knob; an infinite one would reach a float-to-int cast of
  // NaN, which is undefined.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, const char*> knobs[] = {
      {"distributed", "report-rate"},
      {"distributed", "scan-rate"},
      {"distributed", "generation-rate"},
      {"async_routing", "arrival-rate"},
      {"async_routing", "generation-rate"},
  };
  for (const auto& [protocol, knob] : knobs) {
    for (const double value : {-1.0, kNan, kInf}) {
      EXPECT_TRUE(knob_rejected(protocol, knob, value))
          << protocol << " accepted " << knob << " = " << value;
    }
  }
}

TEST(Registry, DetourSlackKeepsItsUnrestrictedSentinel) {
  constexpr std::int64_t kWrapsToOne = (std::int64_t{1} << 32) + 1;
  EXPECT_FALSE(knob_rejected("balancing", "detour-slack", std::int64_t{-1}));
  EXPECT_TRUE(knob_rejected("balancing", "detour-slack", std::int64_t{-2}));
  EXPECT_TRUE(knob_rejected("balancing", "detour-slack", kWrapsToOne));
}

TEST(Registry, GossipRejectsNegativeOrNonFiniteLatency) {
  // An infinite or NaN latency never delivers a report, so the run would
  // spin out its whole round budget; a negative one has no meaning.
  for (const double latency : {-0.5, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioSpec spec = small_spec("gossip");
    spec.knobs["latency"] = latency;
    try {
      (void)registry().run("gossip", spec);
      ADD_FAILURE() << "latency " << latency << " was accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("latency"), std::string::npos)
          << error.what();
    }
  }
  ScenarioSpec spec = small_spec("gossip");
  spec.knobs["latency"] = 0.0;
  EXPECT_NO_THROW((void)registry().run("gossip", spec));
}

// Gossip's reports are snapshots of the ledger's dense count mirror,
// which exists only up to PairLedger::kFullReserveNodeLimit nodes, held
// in a delivery ring of 4n^2*depth bytes. A larger run is refused before
// anything is allocated, with a message naming both.
TEST(Registry, GossipRejectsNetworksAboveTheDenseMirrorLimit) {
  ScenarioSpec spec = small_spec("gossip");
  spec.topology = "cycle";
  spec.nodes = core::PairLedger::kFullReserveNodeLimit + 1;
  try {
    (void)registry().run("gossip", spec);
    FAIL() << "a gossip run above the mirror limit was accepted";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("1024 nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("4n^2*depth bytes"), std::string::npos) << what;
  }
}

// Fidelity's generate and decide kernels dispatch through the chunk
// scheduler with its phase timers' load records, so its timings carry
// the chunk-imbalance signal like every NetworkState kernel's. The mean
// storage age at use is also a scalar, so suites (which keep scalars,
// not stats) report it.
TEST(Registry, FidelityTimingsCarryChunkImbalance) {
  ScenarioSpec spec = small_spec("fidelity");
  spec.knobs["duration"] = 30.0;
  spec.knobs["threads"] = std::int64_t{2};
  const RunMetrics metrics = registry().run("fidelity", spec);
  for (const char* name :
       {"shard_imbalance.generate", "shard_imbalance.decide"}) {
    ASSERT_TRUE(metrics.has_timing(name)) << name;
    EXPECT_GE(metrics.timing(name), 1.0) << name;
  }
  const util::RunningStats& age = metrics.stats("storage_age_at_use");
  ASSERT_GT(age.count(), 0u);
  EXPECT_EQ(metrics.scalar("mean_storage_age"), age.mean());
}

// The protocols that record a per-request latency also report its mean
// as a scalar, so suites (which keep scalars, not stats) carry it.
TEST(Registry, RequestLatencyMeanIsAScalar) {
  for (const char* name : {"distributed", "async_routing", "fidelity"}) {
    ScenarioSpec spec = small_spec(name);
    spec.knobs["duration"] = 60.0;
    const RunMetrics metrics = registry().run(name, spec);
    const util::RunningStats& latency = metrics.stats("request_latency");
    ASSERT_GT(latency.count(), 0u) << name;
    EXPECT_EQ(metrics.scalar("mean_request_latency"), latency.mean()) << name;
  }
}

TEST(Registry, LpProtocolReportsStatus) {
  const RunMetrics metrics = registry().run("lp", small_spec("lp"));
  EXPECT_EQ(metrics.label("status"), "optimal");
  EXPECT_TRUE(metrics.has_scalar("total_generation"));
}

TEST(Registry, IsolatedRegistryCanHostCustomProtocols) {
  class Probe final : public Protocol {
   public:
    std::string name() const override { return "probe"; }
    std::string describe() const override { return "test probe"; }
    std::vector<KnobSpec> knobs() const override { return {}; }
    RunMetrics run(const ScenarioSpec&) const override {
      RunMetrics metrics;
      metrics.set_scalar("answer", 42.0);
      return metrics;
    }
  };
  Registry isolated;
  isolated.add(std::make_unique<Probe>());
  ScenarioSpec spec = small_spec("probe");
  EXPECT_EQ(isolated.run("probe", spec).scalar("answer"), 42.0);
  EXPECT_FALSE(isolated.contains("balancing"));
}

TEST(RunMetrics, JsonRoundTrip) {
  RunMetrics metrics;
  metrics.set_label("completed", "yes");
  metrics.set_scalar("rounds", 123.0);
  metrics.set_scalar("overhead_paper", 1.875);
  util::RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  stats.add(4.0);
  metrics.set_stats("head_wait_rounds", stats);

  const RunMetrics round = RunMetrics::from_json(
      util::json::Value::parse(metrics.to_json().dump(2)));
  EXPECT_EQ(round.label("completed"), "yes");
  EXPECT_EQ(round.scalar("rounds"), 123.0);
  EXPECT_EQ(round.scalar("overhead_paper"), 1.875);
  const util::RunningStats& restored = round.stats("head_wait_rounds");
  EXPECT_EQ(restored.count(), 3u);
  EXPECT_DOUBLE_EQ(restored.mean(), stats.mean());
  EXPECT_NEAR(restored.stddev(), stats.stddev(), 1e-12);
  EXPECT_EQ(restored.min(), 1.0);
  EXPECT_EQ(restored.max(), 4.0);
}

}  // namespace
}  // namespace poq::scenario
