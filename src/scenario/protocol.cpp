#include "scenario/protocol.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::scenario {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

void Registry::add(std::unique_ptr<Protocol> protocol) {
  ensure(protocol != nullptr, "registry: null protocol");
  const std::string name = protocol->name();
  for (const auto& existing : protocols_) {
    ensure(existing->name() != name,
           util::str_cat("registry: duplicate protocol '", name, "'"));
  }
  protocols_.push_back(std::move(protocol));
}

bool Registry::contains(const std::string& name) const {
  for (const auto& protocol : protocols_) {
    if (protocol->name() == name) return true;
  }
  return false;
}

const Protocol& Registry::find(const std::string& name) const {
  for (const auto& protocol : protocols_) {
    if (protocol->name() == name) return *protocol;
  }
  throw PreconditionError(util::str_cat("unknown protocol '", name,
                                        "' (registered: ", join(names()), ")"));
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(protocols_.size());
  for (const auto& protocol : protocols_) out.push_back(protocol->name());
  return out;
}

void Registry::validate_knobs(const Protocol& protocol,
                              const ScenarioSpec& spec) const {
  const std::vector<KnobSpec> schema = protocol.knobs();
  for (const auto& [name, value] : spec.knobs) {
    const KnobSpec* declared = nullptr;
    for (const KnobSpec& knob : schema) {
      if (knob.name == name) {
        declared = &knob;
        break;
      }
    }
    if (!declared) {
      std::vector<std::string> valid;
      valid.reserve(schema.size());
      for (const KnobSpec& knob : schema) valid.push_back(knob.name);
      throw PreconditionError(util::str_cat(
          "protocol '", protocol.name(), "' has no knob '", name,
          "' (valid knobs: ", valid.empty() ? "none" : join(valid), ")"));
    }
    const KnobType actual = knob_value_type(value);
    const bool ok = actual == declared->type ||
                    (declared->type == KnobType::kDouble && actual == KnobType::kInt);
    if (!ok) {
      throw PreconditionError(util::str_cat(
          "knob '", name, "' of protocol '", protocol.name(), "' expects a ",
          knob_type_name(declared->type), ", got ", knob_type_name(actual), " '",
          knob_value_text(value), "'"));
    }
    if (actual == KnobType::kInt) {
      const std::int64_t number = std::get<std::int64_t>(value);
      if (number < declared->min || number > declared->max) {
        throw PreconditionError(util::str_cat("knob '", name, "' must be in [",
                                              declared->min, ", ", declared->max,
                                              "], got ", number));
      }
    }
  }
}

RunMetrics Registry::run(const std::string& name, const ScenarioSpec& spec) const {
  const Protocol& protocol = find(name);
  validate_frame(spec);
  validate_knobs(protocol, spec);
  return protocol.run(spec);
}

util::json::Value registry_to_json(const Registry& source) {
  using util::json::Value;
  Value protocols = Value::array();
  for (const std::string& name : source.names()) {
    const Protocol& protocol = source.find(name);
    Value entry = Value::object();
    entry.set("name", protocol.name());
    entry.set("description", protocol.describe());
    Value knobs = Value::array();
    for (const KnobSpec& knob : protocol.knobs()) {
      Value k = Value::object();
      k.set("name", knob.name);
      k.set("type", knob_type_name(knob.type));
      k.set("default", std::visit([](const auto& v) { return Value(v); },
                                  knob.default_value));
      k.set("help", knob.help);
      knobs.push_back(std::move(k));
    }
    entry.set("knobs", std::move(knobs));
    protocols.push_back(std::move(entry));
  }
  Value out = Value::object();
  out.set("protocols", std::move(protocols));
  return out;
}

Registry& registry() {
  static Registry instance = [] {
    Registry built;
    register_builtin_protocols(built);
    return built;
  }();
  return instance;
}

}  // namespace poq::scenario
