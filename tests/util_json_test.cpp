#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mutation_fuzz.hpp"
#include "util/error.hpp"

namespace poq::util::json {
namespace {

TEST(Json, DumpScalars) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(1.5).dump(), "1.5");
  EXPECT_EQ(Value(3).dump(), "3");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_TRUE(Value(std::nan("")).is_null());
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double value : {0.1, 1.0 / 3.0, 123456.789, -2.5e-8, 1e15}) {
    const Value parsed = Value::parse(Value(value).dump());
    EXPECT_EQ(parsed.as_number(), value);
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Value object = Value::object();
  object.set("zebra", 1.0);
  object.set("apple", 2.0);
  object.set("mango", 3.0);
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // Overwrite keeps the original position.
  object.set("zebra", 9.0);
  EXPECT_EQ(object.dump(), "{\"zebra\":9,\"apple\":2,\"mango\":3}");
}

TEST(Json, ParseNestedDocument) {
  const Value value = Value::parse(
      R"({"name": "fig5", "cells": [{"nodes": 9, "ok": true}, {"nodes": 16, "ok": false}], "extra": null})");
  EXPECT_EQ(value.at("name").as_string(), "fig5");
  EXPECT_EQ(value.at("cells").size(), 2u);
  EXPECT_EQ(value.at("cells").at(0).at("nodes").as_number(), 9.0);
  EXPECT_FALSE(value.at("cells").at(1).at("ok").as_bool());
  EXPECT_TRUE(value.at("extra").is_null());
  EXPECT_TRUE(value.contains("extra"));
  EXPECT_FALSE(value.contains("missing"));
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string text = "line1\nline2\t\"quoted\" \\slash";
  const Value parsed = Value::parse(Value(text).dump());
  EXPECT_EQ(parsed.as_string(), text);
  EXPECT_EQ(Value::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, PrettyDumpParsesBack) {
  Value list = Value::array();
  list.push_back(1.0);
  list.push_back("two");
  Value object = Value::object();
  object.set("list", std::move(list));
  object.set("nested", Value::object());
  const std::string pretty = object.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Value::parse(pretty), object);
}

TEST(Json, ParseErrorsAreActionable) {
  EXPECT_THROW(Value::parse("{"), PreconditionError);
  EXPECT_THROW(Value::parse("[1, 2,]"), PreconditionError);
  EXPECT_THROW(Value::parse("nul"), PreconditionError);
  EXPECT_THROW(Value::parse("1 2"), PreconditionError);
  EXPECT_THROW(Value::parse("\"unterminated"), PreconditionError);
  try {
    (void)Value::parse("{\"a\": }");
    FAIL() << "expected parse failure";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("byte"), std::string::npos);
  }
  // Nesting is bounded: kMaxParseDepth levels parse, one more is refused
  // with a message naming the depth, and a 200 000-deep document (which
  // used to overflow the stack) is refused the same way.
  const auto nested = [](std::size_t depth, const std::string& open,
                         const std::string& close) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += open;
    text += "1";
    for (std::size_t i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW((void)Value::parse(nested(kMaxParseDepth, "[", "]")));
  EXPECT_NO_THROW((void)Value::parse(nested(kMaxParseDepth, "{\"k\":", "}")));
  for (const auto& [open, close] : {std::pair<std::string, std::string>{"[", "]"},
                                    std::pair<std::string, std::string>{"{\"k\":", "}"}}) {
    try {
      (void)Value::parse(nested(kMaxParseDepth + 1, open, close));
      FAIL() << "expected a depth error for " << open;
    } catch (const PreconditionError& error) {
      const std::string depth = "nesting depth " + std::to_string(kMaxParseDepth + 1);
      EXPECT_NE(std::string(error.what()).find(depth), std::string::npos)
          << error.what();
    }
    EXPECT_THROW((void)Value::parse(nested(200000, open, close)), PreconditionError);
    EXPECT_THROW((void)Value::parse(std::string(200000, open[0])), PreconditionError);
  }
}

TEST(Json, TypeMismatchThrows) {
  const Value number(1.0);
  EXPECT_THROW((void)number.as_string(), PreconditionError);
  EXPECT_THROW((void)number.at("key"), PreconditionError);
  const Value object = Value::object();
  EXPECT_THROW((void)object.at("missing"), PreconditionError);
  EXPECT_THROW((void)object.as_number(), PreconditionError);
}

TEST(Json, EqualityIsStructural) {
  const Value a = Value::parse(R"({"x": [1, 2], "y": "z"})");
  const Value b = Value::parse(R"({ "x" : [ 1 , 2 ] , "y" : "z" })");
  EXPECT_TRUE(a == b);
  const Value c = Value::parse(R"({"y": "z", "x": [1, 2]})");
  EXPECT_FALSE(a == c);  // member order is part of the document
}

TEST(Json, ParseErrorsCarryLineColumnAndCaretExcerpt) {
  try {
    (void)Value::parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("column 8"), std::string::npos) << message;
    EXPECT_NE(message.find("oops"), std::string::npos)
        << "excerpt should show the offending line: " << message;
    EXPECT_NE(message.find('^'), std::string::npos) << message;
  }
}

TEST(Json, ParseEofErrorNamesByteOffsetAndLine) {
  try {
    (void)Value::parse("{\"a\": [1, 2");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unexpected end of input"), std::string::npos)
        << message;
    EXPECT_NE(message.find("at byte 11"), std::string::npos) << message;
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  }
}

TEST(Json, ParseErrorExcerptClampsToTheOffendingLine) {
  const std::string long_line(200, ' ');
  try {
    (void)Value::parse("{\"key\":\n" + long_line + "@\n}");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    // The caret line stays short even though the line is 200 bytes.
    const std::size_t caret = message.find('^');
    ASSERT_NE(caret, std::string::npos);
    const std::size_t caret_line = message.rfind('\n', caret);
    ASSERT_NE(caret_line, std::string::npos);
    EXPECT_LE(caret - caret_line, 64u);
  }
}

// Mutants of the spec files and serve frames: each parses or throws, and
// whatever parses dumps to text that parses back to the same document.
TEST(JsonFuzz, MutantsParseOrThrow) {
  std::vector<std::string> inputs = fuzz::example_specs();
  for (std::string& frame : fuzz::serve_frames()) inputs.push_back(std::move(frame));
  const fuzz::FuzzTally tally =
      fuzz::fuzz_inputs(inputs, 0x5EED1, 2000, [](const std::string& text) {
        const Value value = Value::parse(text);
        ASSERT_EQ(Value::parse(value.dump()), value) << text;
      });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.refused, 0u);
}

}  // namespace
}  // namespace poq::util::json
