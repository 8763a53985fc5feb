// Minimal JSON document model: parse, build, dump.
//
// poqnet emits machine-readable artifacts (scenario metrics, BENCH_*.json)
// and diffs them against committed baselines, so it needs a real JSON
// round-trip rather than ad-hoc string assembly — but not a third-party
// dependency. This covers the JSON poqnet itself produces: null, bool,
// finite doubles (NaN/Inf dump as null), strings with standard escapes,
// arrays, and insertion-ordered objects (deterministic output is part of
// the bench-diff contract).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace poq::util::json {

class Value;

/// Deepest array/object nesting Value::parse accepts. The parser
/// recurses once per level, so a fixed bound keeps a hostile document
/// (a spec file, a serve frame) from exhausting the stack.
inline constexpr std::size_t kMaxParseDepth = 256;

/// Object members preserve insertion order so dumps are deterministic.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool value) : type_(Type::kBool), bool_(value) {}
  Value(double value);  // non-finite collapses to null
  Value(int value) : Value(static_cast<double>(value)) {}
  Value(std::int64_t value) : Value(static_cast<double>(value)) {}
  Value(std::uint64_t value) : Value(static_cast<double>(value)) {}
  Value(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Value(const char* value) : Value(std::string(value)) {}

  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  /// Parse a complete JSON document; trailing non-whitespace is an error.
  /// Throws PreconditionError on malformed input, locating the failure by
  /// byte offset, line and column, plus a caret-marked excerpt of the
  /// offending line (the serve protocol replies with these messages, so
  /// they must pinpoint the problem in the client's frame). Nesting
  /// deeper than kMaxParseDepth is refused the same way.
  [[nodiscard]] static Value parse(std::string_view text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw PreconditionError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- array interface ---
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& at(std::size_t index) const;
  Value& push_back(Value element);
  [[nodiscard]] const std::vector<Value>& items() const;

  // --- object interface ---
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Lookup; throws PreconditionError naming the missing key.
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// Insert or overwrite, preserving first-insertion position.
  Value& set(std::string key, Value value);
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Serialize. indent < 0 yields compact one-line output; indent >= 0
  /// pretty-prints with that many spaces per level. Numbers use the
  /// shortest representation that round-trips (std::to_chars).
  [[nodiscard]] std::string dump(int indent = -1) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Render a double exactly as Value::dump would (shared by tests).
[[nodiscard]] std::string dump_number(double value);

}  // namespace poq::util::json
