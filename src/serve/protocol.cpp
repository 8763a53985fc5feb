#include "serve/protocol.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::serve {

void FrameReader::feed(std::string_view bytes) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not accrete every frame it ever received.
  if (start_ > 0 && start_ >= buffer_.size() / 2) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
  const std::size_t newline = buffer_.find('\n', start_);
  if (newline == std::string::npos) {
    require(pending() <= kMaxFrameBytes,
            util::str_cat("serve: frame exceeds ", kMaxFrameBytes,
                          " bytes without a newline"));
    return std::nullopt;
  }
  std::string frame = buffer_.substr(start_, newline - start_);
  start_ = newline + 1;
  require(frame.size() <= kMaxFrameBytes,
          util::str_cat("serve: frame of ", frame.size(), " bytes exceeds the ",
                        kMaxFrameBytes, "-byte limit"));
  // Tolerate CRLF-minded clients.
  if (!frame.empty() && frame.back() == '\r') frame.pop_back();
  return frame;
}

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_state_is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

bool is_terminal_event(std::string_view event) {
  return event == "job_done" || event == "job_failed" ||
         event == "job_cancelled";
}

namespace {

using util::json::Value;

std::uint64_t parse_uint(const Value& value, const char* field) {
  require(value.is_number(), util::str_cat("serve: '", field,
                                           "' must be a number"));
  const double number = value.as_number();
  // 2^64 and above would make the cast undefined.
  require(number >= 0 && number < 0x1p64 &&
              number == static_cast<double>(static_cast<std::uint64_t>(number)),
          util::str_cat("serve: '", field,
                        "' must be a non-negative integer"));
  return static_cast<std::uint64_t>(number);
}

}  // namespace

Request parse_request(const std::string& frame) {
  const Value root = Value::parse(frame);
  require(root.is_object(), "serve: request frame must be a JSON object");
  require(root.contains("op"), "serve: request is missing 'op'");
  require(root.at("op").is_string(), "serve: 'op' must be a string");

  Request request;
  const std::string& op = root.at("op").as_string();
  if (op == "submit_run") request.op = Op::kSubmitRun;
  else if (op == "submit_sweep") request.op = Op::kSubmitSweep;
  else if (op == "status") request.op = Op::kStatus;
  else if (op == "watch") request.op = Op::kWatch;
  else if (op == "cancel") request.op = Op::kCancel;
  else if (op == "reset") request.op = Op::kReset;
  else if (op == "shutdown") request.op = Op::kShutdown;
  else if (op == "list") request.op = Op::kList;
  else {
    throw PreconditionError(util::str_cat(
        "serve: unknown op '", op,
        "' (valid: submit_run, submit_sweep, status, watch, cancel, reset, "
        "shutdown, list)"));
  }

  if (root.contains("id")) {
    require(root.at("id").is_string(), "serve: 'id' must be a string");
    request.id = root.at("id").as_string();
  }
  if (root.contains("watch")) {
    require(root.at("watch").is_bool(), "serve: 'watch' must be a bool");
    request.watch = root.at("watch").as_bool();
  }
  if (root.contains("job")) {
    request.job = parse_uint(root.at("job"), "job");
    request.has_job = true;
  }

  switch (request.op) {
    case Op::kSubmitRun:
      require(root.contains("spec"), "serve: submit_run needs a 'spec'");
      request.spec = scenario::ScenarioSpec::from_json(root.at("spec"));
      break;
    case Op::kSubmitSweep: {
      require(root.contains("grid"), "serve: submit_sweep needs a 'grid'");
      require(root.at("grid").is_array() && root.at("grid").size() > 0,
              "serve: 'grid' must be a non-empty array of specs");
      request.grid.reserve(root.at("grid").size());
      for (const Value& cell : root.at("grid").items()) {
        request.grid.push_back(scenario::ScenarioSpec::from_json(cell));
      }
      if (root.contains("seeds_per_cell")) {
        const std::uint64_t seeds =
            parse_uint(root.at("seeds_per_cell"), "seeds_per_cell");
        require(seeds >= 1 && seeds <= 100000,
                "serve: 'seeds_per_cell' must be in [1, 100000]");
        request.seeds_per_cell = static_cast<std::uint32_t>(seeds);
      }
      break;
    }
    case Op::kWatch:
    case Op::kCancel:
      require(request.has_job,
              util::str_cat("serve: ", op, " needs a 'job'"));
      break;
    case Op::kStatus:
    case Op::kReset:
    case Op::kShutdown:
    case Op::kList:
      break;
  }
  return request;
}

util::json::Value ok_response(const std::string& id) {
  Value out = Value::object();
  out.set("ok", true);
  if (!id.empty()) out.set("id", id);
  return out;
}

util::json::Value error_response(const std::string& id, const std::string& code,
                                 const std::string& error) {
  Value out = Value::object();
  out.set("ok", false);
  if (!id.empty()) out.set("id", id);
  out.set("code", code);
  out.set("error", error);
  return out;
}

util::json::Value event_frame(const std::string& event, std::uint64_t job) {
  Value out = Value::object();
  out.set("event", event);
  out.set("job", job);
  return out;
}

std::string encode_frame(const util::json::Value& value) {
  std::string line = value.dump();
  line.push_back('\n');
  return line;
}

}  // namespace poq::serve
