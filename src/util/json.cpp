#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::util::json {

namespace {

/// Cursor over the input with located error reporting: every parse error
/// names the byte offset, the line/column, and an excerpt of the
/// offending line with a caret — the serve protocol echoes these messages
/// back to remote clients, where "unexpected end of input" alone is
/// useless.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  /// Arrays and objects open around the cursor.
  std::size_t depth = 0;

  [[nodiscard]] std::string locate(const std::string& message) const {
    std::size_t line = 1;
    std::size_t line_start = 0;
    const std::size_t at = std::min(pos, text.size());
    for (std::size_t i = 0; i < at; ++i) {
      if (text[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    const std::size_t column = at - line_start + 1;
    // Excerpt: up to 30 bytes of the offending line on either side of the
    // cursor, with a caret marking the position.
    std::size_t line_end = at;
    while (line_end < text.size() && text[line_end] != '\n') ++line_end;
    const std::size_t from = std::max(line_start, at > 30 ? at - 30 : 0);
    const std::size_t to = std::min(line_end, at + 30);
    std::string excerpt;
    for (std::size_t i = from; i < to; ++i) {
      const char c = text[i];
      excerpt.push_back((c == '\t' || c == '\r') ? ' ' : c);
    }
    std::string caret(at - from, ' ');
    caret.push_back('^');
    return str_cat("json parse error at byte ", at, " (line ", line,
                   ", column ", column, "): ", message, "\n  ", excerpt,
                   "\n  ", caret);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw PreconditionError(locate(message));
  }

  void skip_whitespace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] char peek() const {
    if (pos >= text.size()) fail_eof();
    return text[pos];
  }

  [[noreturn]] void fail_eof() const {
    throw PreconditionError(locate("unexpected end of input"));
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) {
      fail(str_cat("expected '", std::string(1, c), "'"));
    }
    ++pos;
  }

  bool consume_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // One recursion per level: refuse to go past the bound.
        if (++depth > kMaxParseDepth) {
          fail(str_cat("nesting depth ", depth, " exceeds the limit of ",
                       kMaxParseDepth));
        }
        Value out = c == '{' ? parse_object() : parse_array();
        --depth;
        return out;
      }
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail_eof();
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) fail_eof();
      const char escape = text[pos++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) fail_eof();
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // poqnet only emits ASCII; decode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data() + start, text.data() + pos, value);
    if (ec != std::errc{} || end != text.data() + pos || pos == start) {
      pos = start;
      fail("invalid number");
    }
    return Value(value);
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_whitespace();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_whitespace();
      if (pos >= text.size()) fail_eof();
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return out;
    }
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_whitespace();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return out;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_whitespace();
      if (pos >= text.size()) fail_eof();
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return out;
    }
  }
};

void dump_string(std::string& out, const std::string& text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string dump_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  ensure(ec == std::errc{}, "json: number formatting failed");
  return std::string(buffer, end);
}

Value::Value(double value) {
  if (std::isfinite(value)) {
    type_ = Type::kNumber;
    number_ = value;
  }  // else stays null: JSON has no NaN/Inf
}

Value Value::array() {
  Value out;
  out.type_ = Type::kArray;
  return out;
}

Value Value::object() {
  Value out;
  out.type_ = Type::kObject;
  return out;
}

Value Value::parse(std::string_view text) {
  Parser parser{text};
  Value out = parser.parse_value();
  parser.skip_whitespace();
  if (parser.pos != text.size()) parser.fail("trailing characters");
  return out;
}

bool Value::as_bool() const {
  require(is_bool(), "json: value is not a bool");
  return bool_;
}

double Value::as_number() const {
  require(is_number(), "json: value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  require(is_string(), "json: value is not a string");
  return string_;
}

std::size_t Value::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  throw PreconditionError("json: size() needs an array or object");
}

const Value& Value::at(std::size_t index) const {
  require(is_array(), "json: value is not an array");
  require(index < array_.size(), "json: array index out of range");
  return array_[index];
}

Value& Value::push_back(Value element) {
  require(is_array(), "json: value is not an array");
  array_.push_back(std::move(element));
  return array_.back();
}

const std::vector<Value>& Value::items() const {
  require(is_array(), "json: value is not an array");
  return array_;
}

bool Value::contains(std::string_view key) const {
  require(is_object(), "json: value is not an object");
  for (const Member& member : object_) {
    if (member.first == key) return true;
  }
  return false;
}

const Value& Value::at(std::string_view key) const {
  require(is_object(), "json: value is not an object");
  for (const Member& member : object_) {
    if (member.first == key) return member.second;
  }
  throw PreconditionError(str_cat("json: missing key '", key, "'"));
}

Value& Value::set(std::string key, Value value) {
  require(is_object(), "json: value is not an object");
  for (Member& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return member.second;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return object_.back().second;
}

const std::vector<Member>& Value::members() const {
  require(is_object(), "json: value is not an object");
  return object_;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out.push_back('\n');
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int levels) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * levels, ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: out += dump_number(number_); return;
    case Type::kString: dump_string(out, string_); return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        dump_string(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      return;
    }
  }
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Value::Type::kNull: return true;
    case Value::Type::kBool: return a.bool_ == b.bool_;
    case Value::Type::kNumber: return a.number_ == b.number_;
    case Value::Type::kString: return a.string_ == b.string_;
    case Value::Type::kArray: return a.array_ == b.array_;
    case Value::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace poq::util::json
