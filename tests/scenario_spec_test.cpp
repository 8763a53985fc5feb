#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "mutation_fuzz.hpp"
#include "scenario/protocol.hpp"
#include "util/error.hpp"

namespace poq::scenario {
namespace {

std::string message_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const PreconditionError& error) {
    return error.what();
  }
  return "";
}

TEST(ScenarioSpec, KnobAccessorsReadTypedValues) {
  ScenarioSpec spec;
  spec.knobs["distillation"] = 2.5;
  spec.knobs["max-rounds"] = std::int64_t{500};
  spec.knobs["distill"] = true;
  spec.knobs["mode"] = std::string("oriented");
  EXPECT_DOUBLE_EQ(spec.knob_double("distillation", 1.0), 2.5);
  EXPECT_EQ(spec.knob_int("max-rounds", 1), 500);
  EXPECT_TRUE(spec.knob_bool("distill", false));
  EXPECT_EQ(spec.knob_string("mode", "x"), "oriented");
  // Absent knobs fall back.
  EXPECT_DOUBLE_EQ(spec.knob_double("absent", 7.0), 7.0);
  // Ints promote to double, but not the reverse.
  EXPECT_DOUBLE_EQ(spec.knob_double("max-rounds", 0.0), 500.0);
  EXPECT_THROW((void)spec.knob_int("distillation", 0), PreconditionError);
  const std::string message =
      message_of([&] { (void)spec.knob_bool("mode", false); });
  EXPECT_NE(message.find("mode"), std::string::npos);
  EXPECT_NE(message.find("bool"), std::string::npos);
}

TEST(ScenarioSpec, ValidateRejectsUnknownTopology) {
  ScenarioSpec spec;
  spec.topology = "moebius";
  const std::string message = message_of([&] { validate_frame(spec); });
  EXPECT_NE(message.find("moebius"), std::string::npos);
  EXPECT_NE(message.find("random-grid"), std::string::npos);  // lists valid names
}

TEST(ScenarioSpec, ValidateRejectsNonSquareGridCounts) {
  ScenarioSpec spec;
  spec.topology = "random-grid";
  spec.nodes = 24;
  const std::string message = message_of([&] { validate_frame(spec); });
  EXPECT_NE(message.find("perfect square"), std::string::npos);
  EXPECT_NE(message.find("25"), std::string::npos);  // nearest valid count
}

TEST(ScenarioSpec, ValidateRejectsTooFewNodes) {
  ScenarioSpec spec;
  spec.topology = "cycle";
  spec.nodes = 2;  // cycles need >= 3
  const std::string message = message_of([&] { validate_frame(spec); });
  EXPECT_NE(message.find("at least"), std::string::npos);
  EXPECT_NE(message.find("got 2"), std::string::npos);
}

TEST(ScenarioSpec, RegistryRejectsUnknownProtocol) {
  ScenarioSpec spec;
  const std::string message =
      message_of([&] { (void)registry().run("warp-drive", spec); });
  EXPECT_NE(message.find("warp-drive"), std::string::npos);
  EXPECT_NE(message.find("balancing"), std::string::npos);  // lists options
}

TEST(ScenarioSpec, RegistryRejectsUnknownKnob) {
  ScenarioSpec spec;
  spec.nodes = 9;
  spec.knobs["flux-capacitance"] = 1.0;
  const std::string message =
      message_of([&] { (void)registry().run("balancing", spec); });
  EXPECT_NE(message.find("flux-capacitance"), std::string::npos);
  EXPECT_NE(message.find("distillation"), std::string::npos);  // valid knobs
}

TEST(ScenarioSpec, RegistryRejectsKnobTypeMismatch) {
  ScenarioSpec spec;
  spec.nodes = 9;
  spec.knobs["max-rounds"] = std::string("many");
  const std::string message =
      message_of([&] { (void)registry().run("balancing", spec); });
  EXPECT_NE(message.find("max-rounds"), std::string::npos);
  EXPECT_NE(message.find("int"), std::string::npos);
  EXPECT_NE(message.find("many"), std::string::npos);
}

TEST(ScenarioSpec, RegistryAcceptsIntForDoubleKnob) {
  ScenarioSpec spec;
  spec.nodes = 9;
  spec.requests = 5;
  spec.knobs["distillation"] = std::int64_t{2};
  const RunMetrics metrics = registry().run("balancing", spec);
  EXPECT_TRUE(metrics.has_scalar("rounds"));
}

TEST(ScenarioSpec, JsonRoundTripPreservesEverything) {
  ScenarioSpec spec;
  spec.protocol = "gossip";
  spec.topology = "cycle";
  spec.nodes = 12;
  spec.consumer_pairs = 10;
  spec.requests = 44;
  spec.seed = 99;
  spec.knobs["fanout"] = std::int64_t{4};
  spec.knobs["latency"] = 1.5;
  spec.knobs["optimistic-peer"] = false;
  spec.knobs["mode"] = std::string("x");
  const ScenarioSpec round = ScenarioSpec::from_json(
      util::json::Value::parse(spec.to_json().dump()));
  EXPECT_EQ(round.protocol, spec.protocol);
  EXPECT_EQ(round.topology, spec.topology);
  EXPECT_EQ(round.nodes, spec.nodes);
  EXPECT_EQ(round.consumer_pairs, spec.consumer_pairs);
  EXPECT_EQ(round.requests, spec.requests);
  EXPECT_EQ(round.seed, spec.seed);
  EXPECT_EQ(round.knobs, spec.knobs);
}

TEST(ScenarioSpec, FaultScriptRoundTripsAndStaysOptional) {
  ScenarioSpec spec;
  spec.faults.push_back({3, sim::FaultEventKind::kNodeDown, 5, 0, 0, 1.0});
  spec.faults.push_back({7, sim::FaultEventKind::kNodeUp, 5, 0, 0, 1.0});
  spec.faults.push_back({2, sim::FaultEventKind::kLinkDown, 0, 1, 2, 1.0});
  spec.faults.push_back({9, sim::FaultEventKind::kLinkUp, 0, 1, 2, 1.0});
  spec.faults.push_back({4, sim::FaultEventKind::kRateFactor, 0, 0, 0, 0.5});
  const ScenarioSpec round = ScenarioSpec::from_json(
      util::json::Value::parse(spec.to_json().dump(2)));
  ASSERT_EQ(round.faults.size(), spec.faults.size());
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    EXPECT_EQ(round.faults[i].round, spec.faults[i].round) << i;
    EXPECT_EQ(round.faults[i].kind, spec.faults[i].kind) << i;
    EXPECT_EQ(round.faults[i].node, spec.faults[i].node) << i;
    EXPECT_EQ(round.faults[i].a, spec.faults[i].a) << i;
    EXPECT_EQ(round.faults[i].b, spec.faults[i].b) << i;
    EXPECT_DOUBLE_EQ(round.faults[i].factor, spec.faults[i].factor) << i;
  }
  // Fault-free specs must serialize without the key (committed baseline
  // JSON cannot grow), and pre-fault JSON must still parse.
  ScenarioSpec plain;
  EXPECT_EQ(plain.to_json().dump().find("faults"), std::string::npos);
  const ScenarioSpec legacy = ScenarioSpec::from_json(
      util::json::Value::parse(plain.to_json().dump()));
  EXPECT_TRUE(legacy.faults.empty());
  // Unknown event names fail with the valid vocabulary in the message.
  util::json::Value bad = spec.to_json();
  EXPECT_NE(bad.dump().find("node-down"), std::string::npos);
  const std::string text = bad.dump();
  const util::json::Value mangled = util::json::Value::parse(
      std::string(text).replace(text.find("node-down"), 9, "node-boom"));
  EXPECT_THROW((void)ScenarioSpec::from_json(mangled), PreconditionError);
}

TEST(ScenarioSpec, LpRejectsScriptedFaults) {
  ScenarioSpec spec;
  spec.protocol = "lp";
  spec.nodes = 9;
  spec.faults.push_back({1, sim::FaultEventKind::kNodeDown, 0, 0, 0, 1.0});
  EXPECT_NE(message_of([&] { (void)registry().run("lp", spec); })
                .find("scripted fault events are not supported"),
            std::string::npos);
}

TEST(ScenarioSpec, TopologyParamsRoundTripAndStayOptional) {
  ScenarioSpec spec;
  spec.topology = "watts-strogatz";
  spec.nodes = 12;
  spec.topology_params["k"] = 3;
  spec.topology_params["beta"] = 0.4;
  const ScenarioSpec round = ScenarioSpec::from_json(
      util::json::Value::parse(spec.to_json().dump(2)));
  EXPECT_EQ(round.topology_params, spec.topology_params);
  // Parameter-free specs must serialize without the key, so pre-parameter
  // baseline JSON keeps matching cell by cell.
  ScenarioSpec plain;
  EXPECT_EQ(plain.to_json().dump().find("topology_params"), std::string::npos);
  // And pre-parameter JSON (no key) must still parse.
  const ScenarioSpec legacy = ScenarioSpec::from_json(
      util::json::Value::parse(plain.to_json().dump()));
  EXPECT_TRUE(legacy.topology_params.empty());
}

TEST(ScenarioSpec, TopologyParamsValidatePerFamily) {
  ScenarioSpec spec;
  spec.topology = "cycle";
  spec.nodes = 12;
  spec.topology_params["p"] = 0.5;
  EXPECT_NE(message_of([&] { validate_frame(spec); })
                .find("does not define parameter 'p'"),
            std::string::npos);
  spec.topology = "erdos-renyi";
  EXPECT_NO_THROW(validate_frame(spec));
  spec.topology_params["p"] = 1.5;  // out of range
  EXPECT_THROW(validate_frame(spec), PreconditionError);
  spec.topology_params.clear();
  spec.topology = "watts-strogatz";
  spec.topology_params["k"] = 2.5;  // not integral
  EXPECT_THROW(validate_frame(spec), PreconditionError);
  spec.topology_params["k"] = 5;  // needs n > 2k = 10; 12 is fine
  EXPECT_NO_THROW(validate_frame(spec));
  spec.nodes = 10;
  EXPECT_THROW(validate_frame(spec), PreconditionError);
}

TEST(ScenarioSpec, TopologyParamsShapeTheInstance) {
  ScenarioSpec sparse;
  sparse.topology = "erdos-renyi";
  sparse.nodes = 20;
  sparse.seed = 3;
  sparse.topology_params["p"] = 0.3;
  ScenarioSpec dense = sparse;
  dense.topology_params["p"] = 0.9;
  EXPECT_LT(instantiate(sparse).graph.edge_count(),
            instantiate(dense).graph.edge_count());

  ScenarioSpec ba;
  ba.topology = "barabasi-albert";
  ba.nodes = 20;
  ba.topology_params["m"] = 4;
  // n nodes, m edges per arrival after an m-star seed: m + (n-m-1)*m edges.
  EXPECT_EQ(instantiate(ba).graph.edge_count(), 4u + 15u * 4u);
}

TEST(ScenarioSpec, InstantiateIsDeterministic) {
  ScenarioSpec spec;
  spec.nodes = 16;
  spec.requests = 20;
  spec.seed = 5;
  const ScenarioInstance a = instantiate(spec);
  const ScenarioInstance b = instantiate(spec);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  ASSERT_EQ(a.workload.sequence.size(), b.workload.sequence.size());
  EXPECT_EQ(a.workload.sequence, b.workload.sequence);
  ASSERT_EQ(a.workload.pairs.size(), b.workload.pairs.size());
  for (std::size_t i = 0; i < a.workload.pairs.size(); ++i) {
    EXPECT_EQ(a.workload.pairs[i], b.workload.pairs[i]);
  }
}

// The fuzzer's first find: `"requests": -1` was cast to size_t, which is
// undefined (UBSan's float-cast-overflow stops there). Every unsigned
// field now refuses values it cannot hold.
TEST(ScenarioSpecFuzz, OutOfRangeCountsAreRefused) {
  const std::string frame =
      R"("protocol":"balancing","topology":"cycle","consumer_pairs":2,"seed":1,)";
  const auto parse = [&frame](const std::string& rest) {
    return ScenarioSpec::from_json(util::json::Value::parse("{" + frame + rest + "}"));
  };
  EXPECT_EQ(parse(R"("nodes":9,"requests":3)").requests, 3u);
  EXPECT_THROW((void)parse(R"("nodes":9,"requests":-1)"), PreconditionError);
  EXPECT_THROW((void)parse(R"("nodes":1e30,"requests":3)"), PreconditionError);
  EXPECT_THROW(
      (void)parse(R"("nodes":9,"requests":3,"faults":[{"round":1,"event":"node-down","node":-2}])"),
      PreconditionError);
  EXPECT_THROW((void)parse(R"("nodes":9,"requests":3,)"
                           R"("faults":[{"round":1,"event":"link-up","edge":[0,4294967296]}])"),
               PreconditionError);
}

// Mutants of the example spec files, faults arrays and topology_params
// included, through what the daemon does to a submitted spec: from_json,
// then the frame and knob checks. Each is accepted or throws.
TEST(ScenarioSpecFuzz, MutatedSpecFilesParseOrThrow) {
  const fuzz::FuzzTally tally =
      fuzz::fuzz_inputs(fuzz::example_specs(), 0x5EED3, 5000, [](const std::string& text) {
        const ScenarioSpec spec = ScenarioSpec::from_json(util::json::Value::parse(text));
        validate_frame(spec);
        registry().validate_knobs(registry().find(spec.protocol), spec);
      });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.refused, 0u);
}

}  // namespace
}  // namespace poq::scenario
