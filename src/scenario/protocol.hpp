// Polymorphic protocol interface + static registry (the scenario API's
// dispatch half).
//
// Each protocol family the repo implements (balancing, planned-path,
// hybrid, gossip, distributed, async_routing, fidelity, lp) registers one
// adapter that declares its knobs and maps ScenarioSpec -> RunMetrics.
// Consumers never see per-protocol Config/Result structs:
//
//   scenario::RunMetrics m = scenario::registry().run("balancing", spec);
//
// The registry validates the spec frame and the knob overlay (names,
// types, int ranges) against the protocol's declared schema before
// running, so misuse fails with an actionable message instead of silently
// running defaults.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/metrics.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace poq::scenario {

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Registry key ("balancing", "planned", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line human description (CLI help, docs).
  [[nodiscard]] virtual std::string describe() const = 0;
  /// The knob schema: every key a spec may set for this protocol.
  [[nodiscard]] virtual std::vector<KnobSpec> knobs() const = 0;
  /// Run the scenario. The spec has already been validated when invoked
  /// through Registry::run.
  [[nodiscard]] virtual RunMetrics run(const ScenarioSpec& spec) const = 0;
};

class Registry {
 public:
  /// Register a protocol; duplicate names are a bug.
  void add(std::unique_ptr<Protocol> protocol);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Lookup; throws PreconditionError listing the registered names.
  [[nodiscard]] const Protocol& find(const std::string& name) const;
  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Validate the spec frame and knob overlay, then dispatch.
  /// spec.protocol is ignored in favor of `name` so one base spec can be
  /// re-run under several protocols.
  [[nodiscard]] RunMetrics run(const std::string& name,
                               const ScenarioSpec& spec) const;

  /// The knob-overlay half of validation, usable standalone (CLI --help
  /// paths, the serve submit, tests): unknown keys, type mismatches and
  /// ints outside the declared range throw PreconditionError naming the
  /// knob; ints are accepted for double knobs.
  void validate_knobs(const Protocol& protocol, const ScenarioSpec& spec) const;

 private:
  std::vector<std::unique_ptr<Protocol>> protocols_;
};

/// The process-wide registry, with all built-in protocols registered on
/// first use.
[[nodiscard]] Registry& registry();

/// Register the built-in adapters into `target` (exposed so tests can
/// build isolated registries).
void register_builtin_protocols(Registry& target);

/// Machine-readable registry listing, shared by `poqsim list --json` and
/// the serve protocol's `list` op:
///   {"protocols": [{"name": ..., "description": ...,
///                   "knobs": [{"name", "type", "default", "help"}, ...]}]}
/// Knob defaults keep their declared type (bool/number/string); knob order
/// follows each protocol's declaration, protocol order is registration
/// order — both deterministic, so dumps are diffable.
[[nodiscard]] util::json::Value registry_to_json(const Registry& source);

}  // namespace poq::scenario
