// The intra-run determinism contract (docs/ARCHITECTURE.md): for every
// tick-driven protocol in the registry, RunMetrics are bit-identical
// across intra-run thread counts — threads are a pure performance knob,
// and each kernel's chunk grain is a constant. These tests compare full
// RunMetrics JSON dumps (labels, scalars, stats) for exact equality: the
// phase-kernel protocols (balancing, planned, hybrid, gossip, fidelity)
// exercise the chunked NetworkState engine, the message-driven ones
// (distributed, async_routing) the vertex-program substrate. lp has no
// tick engine at all and must *reject* the knobs with a clear error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/protocol.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "scenario/sweep.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace poq::scenario {
namespace {

/// Every protocol with a tick engine: the phase-kernel family runs on the
/// chunked NetworkState, the message-driven family (distributed,
/// async_routing) on the vertex-program substrate. All of them must be
/// threads-invariant. lp is deliberately absent: it has no engine
/// and rejects the knobs (LpRejectsEngineKnobs below).
const std::vector<std::string> kPortedProtocols = {
    "balancing", "planned",  "hybrid",        "gossip",
    "distributed", "fidelity", "async_routing"};

ScenarioSpec base_spec(const std::string& protocol, std::size_t nodes = 25) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = "random-grid";
  spec.nodes = nodes;
  spec.consumer_pairs = 20;
  spec.requests = 40;
  spec.seed = 11;
  spec.knobs["max-rounds"] = std::int64_t{5000};
  if (protocol == "planned") spec.knobs.erase("max-rounds");
  if (protocol == "fidelity" || protocol == "distributed" ||
      protocol == "async_routing") {
    // Event-driven protocols take a duration, not a round budget; keep it
    // short enough for the full threads cross product.
    spec.knobs.erase("max-rounds");
    spec.knobs["duration"] = 60.0;
  }
  if (protocol == "lp") spec.knobs.erase("max-rounds");
  return spec;
}

std::string run_dump(const ScenarioSpec& spec) {
  // to_json(false): drop the phase_ms.* wall-clock timings — they are
  // observability, explicitly outside the determinism contract.
  return registry().run(spec.protocol, spec).to_json(false).dump(2);
}

TEST(ParallelDeterminism, ThreadsNeverChangeResults) {
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol);
    spec.knobs["threads"] = std::int64_t{1};
    const std::string reference = run_dump(spec);
    for (const std::int64_t threads : {2, 8}) {
      spec.knobs["threads"] = threads;
      EXPECT_EQ(run_dump(spec), reference)
          << protocol << " drifted at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, AutoThreadsMatchExplicit) {
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol);
    spec.knobs["threads"] = std::int64_t{1};
    const std::string reference = run_dump(spec);
    spec.knobs["threads"] = std::int64_t{0};  // hardware concurrency
    EXPECT_EQ(run_dump(spec), reference) << protocol;
  }
}

TEST(ParallelDeterminism, ShardCountNeverChangesResults) {
  // The chunk count follows from the input: 81 nodes split the decide
  // kernel (grain 64) in two and the belief kernels (grain 4) in 21, so
  // here the workers really share each dispatch, unlike at 25 nodes.
  // Short horizons keep the larger runs cheap.
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol, 81);
    ASSERT_GT(spec.nodes, sim::grain::kDecide);
    if (spec.knobs.count("max-rounds") != 0) {
      spec.knobs["max-rounds"] = std::int64_t{300};
    }
    if (spec.knobs.count("duration") != 0) spec.knobs["duration"] = 20.0;
    spec.knobs["threads"] = std::int64_t{1};
    const std::string reference = run_dump(spec);
    spec.knobs["threads"] = std::int64_t{4};
    EXPECT_EQ(run_dump(spec), reference) << protocol << " drifted at 81 nodes";
  }
}

TEST(ParallelDeterminism, FullThreadShardCrossProduct) {
  // The acceptance grid: threads {1,2,8} must agree on every ported
  // protocol (smaller spec to keep the product cheap). Distributed's
  // report/decide kernel runs over all n nodes every epoch, so 16 nodes
  // split it at the belief grain.
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol, 16);
    ASSERT_GT(spec.nodes, sim::grain::kBelief);
    spec.consumer_pairs = 10;
    spec.requests = 20;
    if (protocol == "fidelity") spec.knobs["duration"] = 40.0;
    std::string reference;
    for (const std::int64_t threads : {1, 2, 8}) {
      spec.knobs["threads"] = threads;
      const std::string dump = run_dump(spec);
      if (reference.empty()) {
        reference = dump;
      } else {
        EXPECT_EQ(dump, reference)
            << protocol << " drifted at threads=" << threads;
      }
    }
  }
}

TEST(ParallelDeterminism, FractionalRatesStayDeterministic) {
  // Fractional generation rate and distillation exercise every RNG stream
  // the sharded engine keys (per-edge generation, per-commit rounding).
  ScenarioSpec spec = base_spec("balancing");
  spec.knobs["generation-rate"] = 0.7;
  spec.knobs["distillation"] = 1.5;
  spec.knobs["threads"] = std::int64_t{1};
  const std::string reference = run_dump(spec);
  for (const std::int64_t threads : {2, 8}) {
    spec.knobs["threads"] = threads;
    EXPECT_EQ(run_dump(spec), reference) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, GossipStaleViewRoundsStayDeterministic) {
  // Slow gossip (fanout 1, two-round latency) keeps beneficiary views
  // genuinely stale across rounds, exercising the canonical message-merge
  // and the view-based commit re-check.
  ScenarioSpec spec = base_spec("gossip");
  spec.knobs["fanout"] = std::int64_t{1};
  spec.knobs["latency"] = 2.0;
  spec.knobs["threads"] = std::int64_t{1};
  const std::string reference = run_dump(spec);
  const RunMetrics reference_metrics = registry().run("gossip", spec);
  EXPECT_GT(reference_metrics.scalar("view_age"), 0.0)
      << "spec too easy: views never went stale";
  for (const std::int64_t threads : {2, 8}) {
    spec.knobs["threads"] = threads;
    EXPECT_EQ(run_dump(spec), reference) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, FidelityEventOrderingStaysDeterministic) {
  // A dense event schedule (high scan activity over a long horizon) makes
  // the canonical (timestamp, node id) commit order carry real weight.
  ScenarioSpec spec = base_spec("fidelity", 16);
  spec.consumer_pairs = 10;
  spec.requests = 10000;  // never drains: events keep flowing all run
  spec.knobs["duration"] = 120.0;
  spec.knobs["memory-T"] = 30.0;  // fast decay keeps the purge kernels busy
  spec.knobs["threads"] = std::int64_t{1};
  const std::string reference = run_dump(spec);
  const RunMetrics reference_metrics = registry().run("fidelity", spec);
  EXPECT_GT(reference_metrics.scalar("swaps"), 0.0);
  EXPECT_GT(reference_metrics.scalar("pairs_decayed"), 0.0);
  for (const std::int64_t threads : {2, 8}) {
    spec.knobs["threads"] = threads;
    EXPECT_EQ(run_dump(spec), reference) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, MegascaleSparseCellStaysDeterministic) {
  // A 10^4-node sparse torus with streaming arrivals — the megascale
  // regime the BENCH_megascale gate runs at. Everything the round loop
  // touches at this scale is sparse (partner rows, live-pair buckets,
  // lazy distance rows), so this cell pins the whole sparse path to the
  // determinism contract: threads {1,8} bit-identical,
  // including the memory_bytes_per_node scalar.
  ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "full-grid";
  spec.nodes = 10000;  // 100^2
  spec.consumer_pairs = 4;
  spec.requests = 1;
  spec.seed = 41;
  spec.knobs["arrival-rate"] = 8.0;
  spec.knobs["consumer-pool"] = std::int64_t{2000000};
  spec.knobs["max-rounds"] = std::int64_t{40};
  std::string reference;
  for (const std::int64_t threads : {1, 8}) {
    ScenarioSpec cell = spec;
    cell.knobs["threads"] = threads;
    const std::string dump = run_dump(cell);
    if (reference.empty()) {
      reference = dump;
      EXPECT_NE(dump.find("memory_bytes_per_node"), std::string::npos);
    } else {
      EXPECT_EQ(dump, reference)
          << "megascale cell drifted at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, StreamingArrivalsStayDeterministic) {
  // Small streaming run that actually serves requests: the Poisson
  // arrival stream, the lazily derived pool pairs, and the backlog
  // accounting must all be pure functions of (seed, round), never of the
  // worker schedule.
  ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "full-grid";
  spec.nodes = 49;
  spec.consumer_pairs = 4;
  spec.requests = 1;
  spec.seed = 41;
  spec.knobs["arrival-rate"] = 2.0;
  spec.knobs["consumer-pool"] = std::int64_t{2000000};
  spec.knobs["max-rounds"] = std::int64_t{2000};
  spec.knobs["max-requests"] = std::int64_t{100};
  spec.knobs["threads"] = std::int64_t{1};
  const std::string reference = run_dump(spec);
  const RunMetrics reference_metrics = registry().run("balancing", spec);
  EXPECT_EQ(reference_metrics.scalar("satisfied"), 100.0);
  EXPECT_GT(reference_metrics.scalar("arrivals"), 0.0);
  for (const std::int64_t threads : {2, 8}) {
    spec.knobs["threads"] = threads;
    EXPECT_EQ(run_dump(spec), reference) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, FaultChurnStaysDeterministic) {
  // Node + link churn plus rate degradation on every simulating protocol
  // (ledger purges + generation masks, planned's edge buffers, gossip's
  // message substrate, the fidelity event engine, the vertex-program
  // drivers): the fault trajectory comes from its own keyed streams, so
  // the full resilience metric set — crashes, purges, availability,
  // recovery timings in rounds or simulated time — must be bit-identical
  // across the acceptance grid threads {1,2,8}.
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol, 16);
    spec.consumer_pairs = 10;
    spec.requests = 30;
    if (protocol == "fidelity" || protocol == "distributed" ||
        protocol == "async_routing") {
      spec.knobs["duration"] = 40.0;
    }
    spec.knobs["fault-node-mtbf"] = 50.0;
    spec.knobs["fault-node-mttr"] = 6.0;
    spec.knobs["fault-link-mtbf"] = 30.0;
    spec.knobs["fault-link-mttr"] = 4.0;
    spec.knobs["fault-rate-degradation"] = 0.3;
    // A scripted crash on top of the stochastic churn exercises the
    // script cursor alongside the keyed transitions.
    spec.faults.push_back({3, sim::FaultEventKind::kNodeDown, 2, 0, 0, 1.0});
    spec.faults.push_back({9, sim::FaultEventKind::kNodeUp, 2, 0, 0, 1.0});
    std::string reference;
    for (const std::int64_t threads : {1, 2, 8}) {
      spec.knobs["threads"] = threads;
      const std::string dump = run_dump(spec);
      if (reference.empty()) {
        reference = dump;
        EXPECT_NE(dump.find("node_crashes"), std::string::npos)
            << protocol << ": resilience metrics missing under faults";
        EXPECT_NE(dump.find("availability"), std::string::npos);
      } else {
        EXPECT_EQ(dump, reference)
            << protocol << " drifted at threads=" << threads;
      }
    }
    const RunMetrics metrics = registry().run(protocol, spec);
    EXPECT_GT(metrics.scalar("node_crashes"), 0.0) << protocol;
    EXPECT_LT(metrics.scalar("availability"), 1.0) << protocol;
  }
}

TEST(ParallelDeterminism, FaultFreeRunsKeepHistoricalMetrics) {
  // All-default fault knobs must leave every protocol on its historical
  // path: same numbers, and no resilience metrics in the dump (committed
  // baselines depend on the metric set not growing).
  for (const std::string& protocol : kPortedProtocols) {
    ScenarioSpec spec = base_spec(protocol, 16);
    spec.consumer_pairs = 10;
    spec.requests = 20;
    if (protocol == "fidelity" || protocol == "distributed" ||
        protocol == "async_routing") {
      spec.knobs["duration"] = 30.0;
    }
    const std::string reference = run_dump(spec);
    EXPECT_EQ(reference.find("node_crashes"), std::string::npos) << protocol;
    EXPECT_EQ(reference.find("pairs_purged_by_faults"), std::string::npos)
        << protocol;
    ScenarioSpec explicit_defaults = spec;
    explicit_defaults.knobs["fault-node-mtbf"] = 0.0;
    explicit_defaults.knobs["fault-link-mtbf"] = 0.0;
    explicit_defaults.knobs["fault-rate-degradation"] = 0.0;
    EXPECT_EQ(run_dump(explicit_defaults), reference) << protocol;
  }
}

TEST(ParallelDeterminism, SeedReplicatedSweepCellIsThreadInvariant) {
  // One sweep cell replicated over seeds, swept at different pool sizes
  // and intra-run thread counts: the aggregated cell JSON must not move.
  // Compare the aggregated labels + metrics only: the echoed spec differs
  // by design (it carries the threads knob) and wall_ms is explicitly
  // outside the determinism contract.
  const auto aggregate_dump = [](unsigned pool_threads,
                                 std::int64_t intra_threads) {
    ScenarioSpec spec = base_spec("balancing");
    spec.requests = 20;
    spec.knobs["threads"] = intra_threads;
    SweepOptions options;
    options.seeds_per_cell = 3;
    options.threads = pool_threads;
    options.intra_run_threads =
        static_cast<unsigned>(intra_threads > 0 ? intra_threads : 1);
    const std::vector<CellAggregate> cells = SweepRunner(options).run({spec});
    const util::json::Value cell = cells.front().to_json();
    return cell.at("labels").dump(2) + "\n" + cell.at("metrics").dump(2);
  };
  const std::string reference = aggregate_dump(1, 1);
  EXPECT_EQ(aggregate_dump(4, 1), reference);
  EXPECT_EQ(aggregate_dump(1, 8), reference);
  EXPECT_EQ(aggregate_dump(2, 2), reference);
}

TEST(ParallelDeterminism, EngineKnobRejectsUnknownValues) {
  // There is one tick engine, so no protocol declares an `engine` knob:
  // any value, the retired "sequential" and "sharded" included, is an
  // unknown knob for the registry.
  for (const std::string& protocol : kPortedProtocols) {
    for (const char* engine : {"warp-drive", "sequential", "sharded"}) {
      ScenarioSpec spec = base_spec(protocol);
      spec.knobs["engine"] = std::string(engine);
      try {
        (void)registry().run(protocol, spec);
        FAIL() << protocol << " accepted engine=" << engine;
      } catch (const PreconditionError& error) {
        EXPECT_NE(std::string(error.what()).find("has no knob 'engine'"),
                  std::string::npos)
            << protocol << ": unhelpful error for engine=" << engine << ": "
            << error.what();
      }
    }
  }
}

TEST(ParallelDeterminism, LpRejectsEngineKnobs) {
  // lp's steady-state solve has no tick engine to select: its schema
  // deliberately declares no tick knobs, so the registry's knob
  // validation must reject them with a clear error instead of silently
  // accepting and ignoring them (the old adapter lie).
  for (const char* knob : {"engine", "threads", "shards", "decide"}) {
    ScenarioSpec spec = base_spec("lp");
    spec.knobs[knob] = std::string("anything");
    try {
      (void)registry().run("lp", spec);
      FAIL() << "lp accepted tick knob '" << knob << "'";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("has no knob"),
                std::string::npos)
          << "unhelpful error for knob '" << knob << "': " << error.what();
    }
  }
}

TEST(ParallelDeterminism, NoProtocolHasADecideKnob) {
  // Every swap decide is computed from scratch, so there is no second
  // decide path to select; each kernel's chunk grain is a constant, so
  // there is no shard count to set. Every protocol (lp included) rejects
  // both knobs instead of accepting and ignoring them.
  for (const std::string& protocol : registry().names()) {
    for (const char* knob : {"decide", "shards"}) {
      ScenarioSpec spec = base_spec(protocol);
      spec.knobs[knob] = std::string("full");
      try {
        (void)registry().run(protocol, spec);
        ADD_FAILURE() << protocol << " accepted the " << knob << " knob";
      } catch (const PreconditionError& error) {
        EXPECT_NE(std::string(error.what())
                      .find("has no knob '" + std::string(knob) + "'"),
                  std::string::npos)
            << protocol << ": unhelpful error: " << error.what();
      }
    }
  }
}

}  // namespace
}  // namespace poq::scenario
