// Classical control-plane messages.
//
// The simulated protocols exchange: buffer-count state for the balancer
// (§4 assumes global knowledge; §6 relaxes it to gossip), the repointing
// notice carrying the 2 bits that complete each swap (Fig. 2), and the
// consumption handshake. No protocol sends real bytes: distributed and
// gossip only need each message's size, which fills control_bytes. That
// size comes from one size-only pass over the wire layout (a tag byte,
// then LEB128 varint fields), and encode() writes the same layout so
// tests can pin every size to real bytes; classical overhead is thus
// measured, not estimated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

namespace poq::net {

using NodeId = std::uint32_t;

/// One node's current Bell-pair counts toward a set of peers.
struct CountUpdate {
  NodeId reporter = 0;
  std::uint64_t version = 0;  // monotonically increasing per reporter
  struct Entry {
    NodeId peer = 0;
    std::uint32_t count = 0;
  };
  std::vector<Entry> entries;
};

/// Repointing notice after a remote swap (distributed protocol): "your
/// qubit `qubit` is now entangled with `new_partner_qubit` held at
/// `new_partner`". Carries the Bell-measurement bits for the Pauli frame.
struct PairUpdate {
  NodeId to = 0;
  NodeId new_partner = 0;
  std::uint64_t qubit = 0;
  std::uint64_t new_partner_qubit = 0;
  bool z_bit = false;
  bool x_bit = false;
};

/// Consumption handshake, initiator side: "let us consume the pair formed
/// by my `initiator_qubit` and your `responder_qubit`".
struct ConsumeOffer {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t request_id = 0;
  std::uint64_t initiator_qubit = 0;
  std::uint64_t responder_qubit = 0;
};

/// Consumption handshake, responder side.
struct ConsumeReply {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t request_id = 0;
  bool accept = false;
};

using Message = std::variant<CountUpdate, PairUpdate, ConsumeOffer, ConsumeReply>;

/// Stable wire tags (first byte of every encoded message). The values are
/// fixed: control_bytes metrics count them, so a retired kind's tag is
/// never reused.
enum class MessageType : std::uint8_t {
  kCountUpdate = 2,
  kPairUpdate = 6,
  kConsumeOffer = 7,
  kConsumeReply = 8,
};

[[nodiscard]] MessageType message_type(const Message& message);

/// Serialize with a leading type tag. No run calls it: it is the byte
/// oracle that tests check encoded_size and count_report_size against.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// encode(message).size(), computed by a size-only pass over the same
/// fields (summed varint lengths); allocates nothing.
[[nodiscard]] std::size_t encoded_size(const Message& message);

/// The same for a count report, without wrapping (copying) it in a Message.
[[nodiscard]] std::size_t encoded_size(const CountUpdate& update);

/// encoded_size of the dense count report `reporter` sends in a
/// `node_count`-node network: one entry per other node, peer ids
/// ascending, with `counts` its nonzero counts (in any order) and 0 for
/// every other peer. `counts` may also be the reporter's whole dense row
/// (node_count entries, its own entry 0): a zero costs what an absent
/// peer costs. Closed form, without building the entries: the peer-id
/// bytes depend only on (node_count, reporter), each absent peer costs
/// one byte, and only the live counts need a varint length.
[[nodiscard]] std::size_t count_report_size(NodeId reporter, std::uint64_t version,
                                            std::size_t node_count,
                                            std::span<const std::uint32_t> counts);

}  // namespace poq::net
