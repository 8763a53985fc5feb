// Wire protocol for `poqsim serve`: newline-delimited JSON over a local
// AF_UNIX stream socket.
//
// Every frame is one JSON object on one line, terminated by '\n'. Clients
// send request frames ({"op": ..., ...}); the server answers each request
// with exactly one response frame ({"ok": true, ...} or {"ok": false,
// "code": ..., "error": ...}) and, for watched jobs, follows with event
// frames ({"event": ..., "job": ...}) until the job reaches a terminal
// state. The response/event split keeps the client side trivial: read a
// line, parse it, look at one discriminating key.
//
// This layer is pure data — framing, request parsing/validation, and
// response/event builders — with no sockets or threads, so the protocol
// tests exercise every malformed-input path without a running server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/metrics.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace poq::serve {

/// Upper bound on one frame, request or response, in bytes (excluding the
/// terminating newline). The guard runs while a partial line is still
/// buffering, so a client streaming garbage without a newline is rejected
/// after 1 MiB instead of growing the buffer without bound.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Incremental splitter of a byte stream into newline-terminated frames.
/// feed() appends raw bytes as they arrive from the socket; next() yields
/// complete frames (without the '\n') in order, or nullopt when the
/// buffered tail is still partial. A partial line exceeding kMaxFrameBytes
/// throws PreconditionError — the connection is beyond recovery at that
/// point, since frame boundaries are lost.
class FrameReader {
 public:
  void feed(std::string_view bytes);
  [[nodiscard]] std::optional<std::string> next();
  /// Bytes buffered but not yet returned (a truncated trailing frame).
  [[nodiscard]] std::size_t pending() const { return buffer_.size() - start_; }

 private:
  std::string buffer_;
  std::size_t start_ = 0;  // consumed prefix, compacted lazily
};

enum class Op {
  kSubmitRun,    // run one ScenarioSpec as a job
  kSubmitSweep,  // run a grid of specs as one sweep job
  kStatus,       // snapshot one job or the whole table
  kWatch,        // stream a job's events until it is terminal
  kCancel,       // request cooperative cancellation of a job
  kReset,        // cancel everything and clear the job table
  kShutdown,     // stop the daemon
  kList,         // protocol/knob registry listing
};

/// A parsed, validated client request. Parsing throws PreconditionError
/// on anything malformed — unknown op, missing/mistyped fields, specs that
/// fail ScenarioSpec::from_json — with the json parser's located messages
/// passed through verbatim so remote clients see line/column context.
struct Request {
  Op op = Op::kStatus;
  /// Client-chosen correlation id, echoed in the response ("" when unset).
  std::string id;
  /// submit_run: the scenario to run.
  scenario::ScenarioSpec spec;
  /// submit_sweep: the grid cells and replications per cell.
  std::vector<scenario::ScenarioSpec> grid;
  std::uint32_t seeds_per_cell = 1;
  /// status/watch/cancel: the target job. has_job distinguishes
  /// {"op":"status"} (whole table) from {"op":"status","job":N}.
  std::uint64_t job = 0;
  bool has_job = false;
  /// submit_*: stream this job's events on the submitting connection
  /// right after the response frame.
  bool watch = false;
};

[[nodiscard]] Request parse_request(const std::string& frame);

/// Lifecycle of a job in the server's table. Terminal states are kDone,
/// kFailed and kCancelled; watch streams end on the first terminal event.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] std::string job_state_name(JobState state);
[[nodiscard]] bool job_state_is_terminal(JobState state);

/// True for the event names that end a watch stream: "job_done",
/// "job_failed", "job_cancelled".
[[nodiscard]] bool is_terminal_event(std::string_view event);

// --- response / event builders (server side) -----------------------------

/// {"ok": true, "id": <id if non-empty>, ...extra members appended by the
/// caller on the returned object}.
[[nodiscard]] util::json::Value ok_response(const std::string& id);

/// {"ok": false, "id": ..., "code": ..., "error": ...}. Codes the server
/// uses: "bad_request" (unparseable/invalid frame), "queue_full"
/// (admission control rejected the submit), "unknown_job",
/// "shutting_down", and "too_many_connections" (sent unasked to a
/// connection the listener refuses, which it then closes).
[[nodiscard]] util::json::Value error_response(const std::string& id,
                                               const std::string& code,
                                               const std::string& error);

/// {"event": <name>, "job": N}; callers append event-specific members.
/// Event names: "job_queued", "job_started", "task_done" (one sweep
/// (cell, rep) finished, carrying its phase timings), "job_done",
/// "job_failed", "job_cancelled".
[[nodiscard]] util::json::Value event_frame(const std::string& event,
                                            std::uint64_t job);

/// Serialize a frame for the wire: compact dump plus the '\n' terminator.
[[nodiscard]] std::string encode_frame(const util::json::Value& value);

}  // namespace poq::serve
