// Unified experiment specification (the scenario API's input half).
//
// Every protocol variant in the repo consumes the same experimental frame
// — a generation-graph topology, a consumption workload, a seed — plus a
// handful of protocol-specific knobs. ScenarioSpec captures the frame as
// typed fields and the knobs as a validated key/value overlay, so one
// spec can drive any registered protocol and a sweep is just a vector of
// specs. Construction of the graph/workload from a spec is centralized
// here (instantiate), replicating the CLI's historical seeding discipline
// (topology from Rng(seed), workload from fork(42)) so results stay
// comparable with pre-registry drivers.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "sim/fault_plan.hpp"
#include "util/json.hpp"

namespace poq::scenario {

/// A protocol knob value. Integers and doubles are distinct on purpose:
/// the registry coerces int -> double where a protocol declares a double
/// knob, but never the reverse.
using KnobValue = std::variant<bool, std::int64_t, double, std::string>;

enum class KnobType { kBool, kInt, kDouble, kString };

[[nodiscard]] std::string knob_type_name(KnobType type);
[[nodiscard]] KnobType knob_value_type(const KnobValue& value);
[[nodiscard]] std::string knob_value_text(const KnobValue& value);

/// One knob a protocol declares: name, type, default, one-line help and,
/// for an int knob, the inclusive range its value must lie in. The
/// declaration doubles as CLI surface (poqsim forwards matching options)
/// and as the validation schema for ScenarioSpec::knobs; it is the only
/// place a knob's default and range are written.
struct KnobSpec {
  std::string name;
  KnobType type = KnobType::kDouble;
  KnobValue default_value = 0.0;
  std::string help;
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
};

/// The experiment frame shared by all protocols.
struct ScenarioSpec {
  std::string protocol = "balancing";
  /// Topology family name (graph::family_name vocabulary).
  std::string topology = "random-grid";
  /// Topology family parameter overrides, keyed by the family's parameter
  /// name: "p" (erdos-renyi edge probability), "k" / "beta"
  /// (watts-strogatz neighbours per side / rewiring probability), "m"
  /// (barabasi-albert edges per arrival). Keys a family does not define
  /// are rejected by validate_frame; unset keys keep the make_topology
  /// defaults. Part of the frame (not the knob overlay) because the
  /// generation graph is protocol-independent.
  std::map<std::string, double> topology_params;
  std::size_t nodes = 25;
  /// Consumer pairs drawn from C(nodes, 2); clamped when n is small.
  std::size_t consumer_pairs = 35;
  /// Request backlog length (head-of-line order).
  std::size_t requests = 200;
  std::uint64_t seed = 1;
  /// Protocol-specific overlay, validated against the protocol's KnobSpecs.
  std::map<std::string, KnobValue> knobs;
  /// Scripted fault events (the `faults` JSON array), applied by the
  /// protocol's fault phase at their stamped rounds. Part of the frame
  /// rather than the knob overlay because events are structured (round,
  /// kind, entity) and shared verbatim by every simulator protocol.
  /// Stochastic fault processes are ordinary knobs (fault-node-mtbf, ...).
  std::vector<sim::FaultEvent> faults;

  [[nodiscard]] bool has_knob(const std::string& name) const {
    return knobs.count(name) != 0;
  }

  /// Typed knob reads with fallback; throw PreconditionError naming the
  /// knob on a type mismatch (int is accepted where a double is asked).
  [[nodiscard]] bool knob_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] std::int64_t knob_int(const std::string& name,
                                      std::int64_t fallback) const;
  [[nodiscard]] double knob_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::string knob_string(const std::string& name,
                                        const std::string& fallback) const;

  /// Derived copy with a different seed (sweep replication).
  [[nodiscard]] ScenarioSpec with_seed(std::uint64_t new_seed) const;

  [[nodiscard]] util::json::Value to_json() const;
  [[nodiscard]] static ScenarioSpec from_json(const util::json::Value& value);
};

/// Parse a topology family name; throws PreconditionError listing the
/// valid names on failure.
[[nodiscard]] graph::TopologyFamily parse_topology_family(const std::string& name);

/// Reject specs the topology layer cannot build: unknown family, node
/// count below graph::min_topology_nodes, non-square counts for grid
/// families (the error names the nearest valid count), zero
/// consumer_pairs/requests. Knob validation lives in the registry, which
/// knows the protocol's schema.
void validate_frame(const ScenarioSpec& spec);

/// A spec made concrete: the generation graph and workload every
/// protocol adapter consumes.
struct ScenarioInstance {
  graph::Graph graph{0};
  core::Workload workload;
};

/// Deterministically build graph + workload from the spec (validates the
/// frame first). Same spec => same instance, bit for bit.
[[nodiscard]] ScenarioInstance instantiate(const ScenarioSpec& spec);

}  // namespace poq::scenario
