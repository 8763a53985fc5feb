#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace poq::scenario {

namespace {

constexpr const char* kFamilyNames =
    "cycle, random-grid, full-grid, erdos-renyi, watts-strogatz, "
    "barabasi-albert";

std::size_t nearest_perfect_square(std::size_t n, std::size_t minimum) {
  if (n <= minimum) return minimum;
  const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  const std::size_t below = std::max<std::size_t>(side * side, minimum);
  const std::size_t above = (side + 1) * (side + 1);
  return (n - below <= above - n) ? below : above;
}

[[noreturn]] void knob_type_fail(const std::string& name, KnobType wanted,
                                 const KnobValue& actual) {
  throw PreconditionError(util::str_cat(
      "knob '", name, "' holds a ", knob_type_name(knob_value_type(actual)),
      " but a ", knob_type_name(wanted), " was requested"));
}

const char* fault_event_name(sim::FaultEventKind kind) {
  switch (kind) {
    case sim::FaultEventKind::kNodeDown: return "node-down";
    case sim::FaultEventKind::kNodeUp: return "node-up";
    case sim::FaultEventKind::kLinkDown: return "link-down";
    case sim::FaultEventKind::kLinkUp: return "link-up";
    case sim::FaultEventKind::kRateFactor: return "rate-factor";
  }
  return "?";
}

sim::FaultEventKind parse_fault_event(const std::string& name) {
  if (name == "node-down") return sim::FaultEventKind::kNodeDown;
  if (name == "node-up") return sim::FaultEventKind::kNodeUp;
  if (name == "link-down") return sim::FaultEventKind::kLinkDown;
  if (name == "link-up") return sim::FaultEventKind::kLinkUp;
  if (name == "rate-factor") return sim::FaultEventKind::kRateFactor;
  throw PreconditionError(util::str_cat(
      "unknown fault event '", name,
      "' (valid: node-down, node-up, link-down, link-up, rate-factor)"));
}

/// A spec field's JSON number as an unsigned T, truncated. Casting a
/// negative or too large double to an unsigned type is undefined, so
/// such values are refused.
template <typename T>
T unsigned_field(const util::json::Value& value, const char* field) {
  const double number = value.as_number();
  if (!(number >= 0.0 &&
        number < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    throw PreconditionError(util::str_cat("spec: '", field, "' must be in [0, ",
                                          std::numeric_limits<T>::max(), "] (got ",
                                          util::json::dump_number(number), ")"));
  }
  return static_cast<T>(number);
}

}  // namespace

std::string knob_type_name(KnobType type) {
  switch (type) {
    case KnobType::kBool: return "bool";
    case KnobType::kInt: return "int";
    case KnobType::kDouble: return "double";
    case KnobType::kString: return "string";
  }
  return "?";
}

KnobType knob_value_type(const KnobValue& value) {
  switch (value.index()) {
    case 0: return KnobType::kBool;
    case 1: return KnobType::kInt;
    case 2: return KnobType::kDouble;
    default: return KnobType::kString;
  }
}

std::string knob_value_text(const KnobValue& value) {
  switch (value.index()) {
    case 0: return std::get<bool>(value) ? "true" : "false";
    case 1: return std::to_string(std::get<std::int64_t>(value));
    case 2: return util::json::dump_number(std::get<double>(value));
    default: return std::get<std::string>(value);
  }
}

bool ScenarioSpec::knob_bool(const std::string& name, bool fallback) const {
  const auto found = knobs.find(name);
  if (found == knobs.end()) return fallback;
  if (const bool* value = std::get_if<bool>(&found->second)) return *value;
  knob_type_fail(name, KnobType::kBool, found->second);
}

std::int64_t ScenarioSpec::knob_int(const std::string& name,
                                    std::int64_t fallback) const {
  const auto found = knobs.find(name);
  if (found == knobs.end()) return fallback;
  if (const auto* value = std::get_if<std::int64_t>(&found->second)) return *value;
  knob_type_fail(name, KnobType::kInt, found->second);
}

double ScenarioSpec::knob_double(const std::string& name, double fallback) const {
  const auto found = knobs.find(name);
  if (found == knobs.end()) return fallback;
  if (const double* value = std::get_if<double>(&found->second)) return *value;
  // Ints promote to doubles; anything else is a caller bug.
  if (const auto* value = std::get_if<std::int64_t>(&found->second)) {
    return static_cast<double>(*value);
  }
  knob_type_fail(name, KnobType::kDouble, found->second);
}

std::string ScenarioSpec::knob_string(const std::string& name,
                                      const std::string& fallback) const {
  const auto found = knobs.find(name);
  if (found == knobs.end()) return fallback;
  if (const auto* value = std::get_if<std::string>(&found->second)) return *value;
  knob_type_fail(name, KnobType::kString, found->second);
}

ScenarioSpec ScenarioSpec::with_seed(std::uint64_t new_seed) const {
  ScenarioSpec copy = *this;
  copy.seed = new_seed;
  return copy;
}

util::json::Value ScenarioSpec::to_json() const {
  using util::json::Value;
  Value out = Value::object();
  out.set("protocol", protocol);
  out.set("topology", topology);
  // Emitted only when set so parameter-free specs round-trip byte-for-byte
  // with pre-parameter baselines.
  if (!topology_params.empty()) {
    Value params = Value::object();
    for (const auto& [name, value] : topology_params) params.set(name, value);
    out.set("topology_params", std::move(params));
  }
  out.set("nodes", nodes);
  out.set("consumer_pairs", consumer_pairs);
  out.set("requests", requests);
  out.set("seed", static_cast<double>(seed));
  Value knob_object = Value::object();
  for (const auto& [name, value] : knobs) {
    switch (knob_value_type(value)) {
      case KnobType::kBool: knob_object.set(name, std::get<bool>(value)); break;
      case KnobType::kInt:
        knob_object.set(name, static_cast<double>(std::get<std::int64_t>(value)));
        break;
      case KnobType::kDouble: knob_object.set(name, std::get<double>(value)); break;
      case KnobType::kString: knob_object.set(name, std::get<std::string>(value)); break;
    }
  }
  out.set("knobs", std::move(knob_object));
  // Emitted only when scripted so fault-free specs round-trip
  // byte-for-byte with pre-fault baselines.
  if (!faults.empty()) {
    Value script = Value::array();
    for (const sim::FaultEvent& event : faults) {
      Value entry = Value::object();
      entry.set("round", static_cast<double>(event.round));
      entry.set("event", std::string(fault_event_name(event.kind)));
      switch (event.kind) {
        case sim::FaultEventKind::kNodeDown:
        case sim::FaultEventKind::kNodeUp:
          entry.set("node", static_cast<double>(event.node));
          break;
        case sim::FaultEventKind::kLinkDown:
        case sim::FaultEventKind::kLinkUp: {
          Value edge = Value::array();
          edge.push_back(Value(static_cast<double>(event.a)));
          edge.push_back(Value(static_cast<double>(event.b)));
          entry.set("edge", std::move(edge));
          break;
        }
        case sim::FaultEventKind::kRateFactor:
          entry.set("factor", event.factor);
          break;
      }
      script.push_back(std::move(entry));
    }
    out.set("faults", std::move(script));
  }
  return out;
}

ScenarioSpec ScenarioSpec::from_json(const util::json::Value& value) {
  ScenarioSpec spec;
  spec.protocol = value.at("protocol").as_string();
  spec.topology = value.at("topology").as_string();
  if (value.contains("topology_params")) {
    for (const auto& [name, param] : value.at("topology_params").members()) {
      spec.topology_params.emplace(name, param.as_number());
    }
  }
  spec.nodes = unsigned_field<std::size_t>(value.at("nodes"), "nodes");
  spec.consumer_pairs =
      unsigned_field<std::size_t>(value.at("consumer_pairs"), "consumer_pairs");
  spec.requests = unsigned_field<std::size_t>(value.at("requests"), "requests");
  spec.seed = unsigned_field<std::uint64_t>(value.at("seed"), "seed");
  // "knobs" is optional so hand-written spec files (poqsim run --spec,
  // serve submits) can omit the empty overlay.
  if (value.contains("knobs")) {
    for (const auto& [name, knob] : value.at("knobs").members()) {
      if (knob.is_bool()) {
        spec.knobs.emplace(name, knob.as_bool());
      } else if (knob.is_string()) {
        spec.knobs.emplace(name, knob.as_string());
      } else {
        // JSON numbers are doubles; integral values round-trip as ints so
        // int-typed knobs re-validate cleanly.
        const double number = knob.as_number();
        if (number == std::floor(number) && std::abs(number) < 9.0e15) {
          spec.knobs.emplace(name, static_cast<std::int64_t>(number));
        } else {
          spec.knobs.emplace(name, number);
        }
      }
    }
  }
  if (value.contains("faults")) {
    for (const util::json::Value& entry : value.at("faults").items()) {
      sim::FaultEvent event;
      event.round = unsigned_field<std::uint64_t>(entry.at("round"), "round");
      event.kind = parse_fault_event(entry.at("event").as_string());
      switch (event.kind) {
        case sim::FaultEventKind::kNodeDown:
        case sim::FaultEventKind::kNodeUp:
          event.node = unsigned_field<core::NodeId>(entry.at("node"), "node");
          break;
        case sim::FaultEventKind::kLinkDown:
        case sim::FaultEventKind::kLinkUp: {
          const util::json::Value& edge = entry.at("edge");
          require(edge.is_array() && edge.size() == 2,
                  "fault event: 'edge' must be a [a, b] pair");
          event.a = unsigned_field<core::NodeId>(edge.at(0), "edge");
          event.b = unsigned_field<core::NodeId>(edge.at(1), "edge");
          break;
        }
        case sim::FaultEventKind::kRateFactor:
          event.factor = entry.at("factor").as_number();
          break;
      }
      spec.faults.push_back(event);
    }
  }
  return spec;
}

graph::TopologyFamily parse_topology_family(const std::string& name) {
  if (name == "cycle") return graph::TopologyFamily::kCycle;
  if (name == "random-grid") return graph::TopologyFamily::kRandomGrid;
  if (name == "full-grid") return graph::TopologyFamily::kFullGrid;
  if (name == "erdos-renyi") return graph::TopologyFamily::kErdosRenyi;
  if (name == "watts-strogatz") return graph::TopologyFamily::kWattsStrogatz;
  if (name == "barabasi-albert") return graph::TopologyFamily::kBarabasiAlbert;
  throw PreconditionError(util::str_cat("unknown topology '", name,
                                  "' (valid families: ", kFamilyNames, ")"));
}

namespace {

/// Parameter names each family defines (the spec's topology_params keys).
std::vector<std::string> family_param_names(graph::TopologyFamily family) {
  switch (family) {
    case graph::TopologyFamily::kErdosRenyi: return {"p"};
    case graph::TopologyFamily::kWattsStrogatz: return {"k", "beta"};
    case graph::TopologyFamily::kBarabasiAlbert: return {"m"};
    default: return {};
  }
}

/// Require an integral parameter value >= 1 (k, m).
std::size_t integral_param(const std::string& name, double value) {
  if (value < 1.0 || value != std::floor(value) || value > 1.0e9) {
    throw PreconditionError(util::str_cat("topology parameter '", name,
                                          "' must be a positive integer (got ",
                                          util::json::dump_number(value), ")"));
  }
  return static_cast<std::size_t>(value);
}

/// Typed view of the spec's topology_params overlay (already validated
/// against the family by validate_frame).
graph::TopologyParams topology_params_of(const ScenarioSpec& spec) {
  graph::TopologyParams params;
  for (const auto& [name, value] : spec.topology_params) {
    if (name == "p") {
      params.er_p = value;
    } else if (name == "k") {
      params.ws_k = integral_param(name, value);
    } else if (name == "beta") {
      params.ws_beta = value;
    } else if (name == "m") {
      params.ba_m = integral_param(name, value);
    }
  }
  return params;
}

}  // namespace

void validate_frame(const ScenarioSpec& spec) {
  const graph::TopologyFamily family = parse_topology_family(spec.topology);
  const std::vector<std::string> param_names = family_param_names(family);
  for (const auto& [name, value] : spec.topology_params) {
    if (std::find(param_names.begin(), param_names.end(), name) ==
        param_names.end()) {
      throw PreconditionError(util::str_cat(
          "topology ", spec.topology, " does not define parameter '", name,
          "' (valid: er p; ws k, beta; ba m)"));
    }
    if ((name == "p" || name == "beta") && (value < 0.0 || value > 1.0)) {
      throw PreconditionError(util::str_cat("topology parameter '", name,
                                            "' must be in [0, 1] (got ",
                                            util::json::dump_number(value), ")"));
    }
  }
  const graph::TopologyParams params = topology_params_of(spec);
  const std::size_t min_nodes = graph::min_topology_nodes(family, params);
  const bool grid = family == graph::TopologyFamily::kRandomGrid ||
                    family == graph::TopologyFamily::kFullGrid;
  const auto fail = [&](const std::string& requirement, std::size_t nearest) {
    throw PreconditionError(util::str_cat(
        "topology ", spec.topology, " requires nodes to be ", requirement,
        " (got ", spec.nodes, "; nearest valid count: ", nearest, ")"));
  };
  if (grid) {
    const bool square_ok = [&] {
      if (spec.nodes < min_nodes) return false;
      const auto side = static_cast<std::size_t>(
          std::sqrt(static_cast<double>(spec.nodes)) + 0.5);
      return side * side == spec.nodes;
    }();
    if (!square_ok) {
      fail(util::str_cat("a perfect square >= ", min_nodes),
           nearest_perfect_square(spec.nodes, std::max<std::size_t>(min_nodes, 9)));
    }
  } else if (spec.nodes < min_nodes) {
    fail(util::str_cat("at least ", min_nodes), min_nodes);
  }
  require(spec.consumer_pairs > 0, "scenario: consumer_pairs must be positive");
  require(spec.requests > 0, "scenario: requests must be positive");
}

ScenarioInstance instantiate(const ScenarioSpec& spec) {
  validate_frame(spec);
  const graph::TopologyFamily family = parse_topology_family(spec.topology);
  ScenarioInstance instance;
  util::Rng rng(spec.seed);
  instance.graph =
      graph::make_topology(family, spec.nodes, rng, topology_params_of(spec));
  const std::size_t max_pairs = spec.nodes * (spec.nodes - 1) / 2;
  const std::size_t pairs = std::min(spec.consumer_pairs, max_pairs);
  util::Rng workload_rng = rng.fork(42);
  instance.workload =
      core::make_uniform_workload(spec.nodes, pairs, spec.requests, workload_rng);
  return instance;
}

}  // namespace poq::scenario
