#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mutation_fuzz.hpp"
#include "scenario/protocol.hpp"
#include "util/error.hpp"

namespace poq::serve {
namespace {

using util::json::Value;

TEST(ServeProtocol, FrameReaderSplitsAcrossFeeds) {
  FrameReader reader;
  reader.feed("{\"op\":");
  EXPECT_FALSE(reader.next().has_value());
  reader.feed("\"status\"}\n{\"op\":\"list\"}\n{\"partial");
  EXPECT_EQ(reader.next().value(), "{\"op\":\"status\"}");
  EXPECT_EQ(reader.next().value(), "{\"op\":\"list\"}");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.pending(), std::string("{\"partial").size());
  reader.feed("\"}\n");
  EXPECT_EQ(reader.next().value(), "{\"partial\"}");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServeProtocol, FrameReaderStripsCarriageReturn) {
  FrameReader reader;
  reader.feed("{\"op\":\"status\"}\r\n");
  EXPECT_EQ(reader.next().value(), "{\"op\":\"status\"}");
}

TEST(ServeProtocol, FrameReaderRejectsOversizedPartialFrame) {
  FrameReader reader;
  reader.feed(std::string(kMaxFrameBytes + 1, 'x'));
  EXPECT_THROW((void)reader.next(), PreconditionError);
}

TEST(ServeProtocol, FrameReaderAcceptsFrameAtTheLimit) {
  FrameReader reader;
  reader.feed(std::string(kMaxFrameBytes, 'x'));
  EXPECT_FALSE(reader.next().has_value());  // still partial, still legal
  reader.feed("\n");
  EXPECT_EQ(reader.next().value().size(), kMaxFrameBytes);
}

TEST(ServeProtocol, ParseRequestRejectsMalformedJsonWithLocation) {
  try {
    (void)parse_request("{\"op\": \"status\",}");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    // The located json error must reach remote clients verbatim.
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    EXPECT_NE(message.find("column"), std::string::npos) << message;
  }
}

TEST(ServeProtocol, ParseRequestRejectsNonObjectAndMissingOp) {
  EXPECT_THROW((void)parse_request("[1,2]"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"spec\":{}}"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"frobnicate\"}"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":42}"), PreconditionError);
}

TEST(ServeProtocol, ParseRequestValidatesPerOpFields) {
  // submit_run needs a spec; submit_sweep a non-empty grid; watch/cancel a job.
  EXPECT_THROW((void)parse_request("{\"op\":\"submit_run\"}"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"submit_sweep\",\"grid\":[]}"),
               PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"watch\"}"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"cancel\"}"), PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"cancel\",\"job\":-1}"),
               PreconditionError);
  EXPECT_THROW((void)parse_request("{\"op\":\"cancel\",\"job\":1.5}"),
               PreconditionError);
  // 2^64 does not fit the job id; casting it would be undefined.
  EXPECT_THROW((void)parse_request("{\"op\":\"cancel\",\"job\":18446744073709551616}"),
               PreconditionError);
}

TEST(ServeProtocol, ParseRequestReadsSubmitRun) {
  const Request request = parse_request(
      "{\"op\":\"submit_run\",\"id\":\"r1\",\"watch\":true,"
      "\"spec\":{\"protocol\":\"balancing\",\"topology\":\"cycle\","
      "\"nodes\":9,\"consumer_pairs\":4,\"requests\":10,\"seed\":7}}");
  EXPECT_EQ(request.op, Op::kSubmitRun);
  EXPECT_EQ(request.id, "r1");
  EXPECT_TRUE(request.watch);
  EXPECT_EQ(request.spec.protocol, "balancing");
  EXPECT_EQ(request.spec.nodes, 9u);
  EXPECT_EQ(request.spec.seed, 7u);
}

TEST(ServeProtocol, ParseRequestReadsSubmitSweep) {
  const Request request = parse_request(
      "{\"op\":\"submit_sweep\",\"seeds_per_cell\":3,\"grid\":["
      "{\"protocol\":\"balancing\",\"topology\":\"cycle\",\"nodes\":9,"
      "\"consumer_pairs\":4,\"requests\":10,\"seed\":1},"
      "{\"protocol\":\"balancing\",\"topology\":\"cycle\",\"nodes\":16,"
      "\"consumer_pairs\":4,\"requests\":10,\"seed\":1}]}");
  EXPECT_EQ(request.op, Op::kSubmitSweep);
  EXPECT_EQ(request.seeds_per_cell, 3u);
  ASSERT_EQ(request.grid.size(), 2u);
  EXPECT_EQ(request.grid[1].nodes, 16u);
}

TEST(ServeProtocol, ResponseAndEventBuilders) {
  EXPECT_EQ(ok_response("x").dump(), "{\"ok\":true,\"id\":\"x\"}");
  EXPECT_EQ(ok_response("").dump(), "{\"ok\":true}");
  const Value error = error_response("y", "queue_full", "full");
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("code").as_string(), "queue_full");
  const Value event = event_frame("job_started", 4);
  EXPECT_EQ(event.at("event").as_string(), "job_started");
  EXPECT_EQ(event.at("job").as_number(), 4.0);
  const std::string line = encode_frame(event);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // one line, one frame
}

TEST(ServeProtocol, TerminalStateAndEventHelpers) {
  EXPECT_FALSE(job_state_is_terminal(JobState::kQueued));
  EXPECT_FALSE(job_state_is_terminal(JobState::kRunning));
  EXPECT_TRUE(job_state_is_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_is_terminal(JobState::kFailed));
  EXPECT_TRUE(job_state_is_terminal(JobState::kCancelled));
  EXPECT_TRUE(is_terminal_event("job_done"));
  EXPECT_TRUE(is_terminal_event("job_failed"));
  EXPECT_TRUE(is_terminal_event("job_cancelled"));
  EXPECT_FALSE(is_terminal_event("job_started"));
  EXPECT_FALSE(is_terminal_event("task_done"));
}

TEST(ServeProtocol, RegistryToJsonListsProtocolsAndKnobs) {
  const Value listing = scenario::registry_to_json(scenario::registry());
  const Value& protocols = listing.at("protocols");
  ASSERT_TRUE(protocols.is_array());
  ASSERT_GT(protocols.size(), 0u);
  bool saw_balancing = false;
  for (const Value& protocol : protocols.items()) {
    EXPECT_TRUE(protocol.at("name").is_string());
    EXPECT_TRUE(protocol.at("description").is_string());
    ASSERT_TRUE(protocol.at("knobs").is_array());
    if (protocol.at("name").as_string() != "balancing") continue;
    saw_balancing = true;
    bool saw_distillation = false;
    for (const Value& knob : protocol.at("knobs").items()) {
      if (knob.at("name").as_string() != "distillation") continue;
      saw_distillation = true;
      EXPECT_EQ(knob.at("type").as_string(), "double");
      EXPECT_EQ(knob.at("default").as_number(), 1.0);
      EXPECT_TRUE(knob.at("help").is_string());
    }
    EXPECT_TRUE(saw_distillation);
  }
  EXPECT_TRUE(saw_balancing);
}

// Mutants of each request frame, and of one connection's whole stream of
// them, fed to a FrameReader in small chunks as the daemon's connection
// loop does: every frame it yields goes through parse_request, and each
// mutant either parses throughout or throws.
TEST(ServeProtocolFuzz, MutatedStreamsParseOrThrow) {
  std::vector<std::string> inputs;
  std::string stream;
  for (const std::string& frame : fuzz::serve_frames()) {
    inputs.push_back(frame + "\n");
    stream += frame + "\n";
  }
  inputs.push_back(stream);
  const fuzz::FuzzTally tally =
      fuzz::fuzz_inputs(inputs, 0x5EED2, 600, [](const std::string& bytes) {
        FrameReader reader;
        const std::size_t chunk = 1 + bytes.size() % 61;
        for (std::size_t at = 0; at < bytes.size(); at += chunk) {
          reader.feed(std::string_view(bytes).substr(at, chunk));
          while (const std::optional<std::string> frame = reader.next()) {
            (void)parse_request(*frame);
          }
        }
      });
  EXPECT_GT(tally.parsed, 0u);
  EXPECT_GT(tally.refused, 0u);
}

}  // namespace
}  // namespace poq::serve
