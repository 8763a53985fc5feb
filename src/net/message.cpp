#include "net/message.hpp"

#include <bit>
#include <utility>

#include "util/error.hpp"

namespace poq::net {

MessageType message_type(const Message& message) {
  struct Visitor {
    MessageType operator()(const CountUpdate&) const { return MessageType::kCountUpdate; }
    MessageType operator()(const PairUpdate&) const { return MessageType::kPairUpdate; }
    MessageType operator()(const ConsumeOffer&) const {
      return MessageType::kConsumeOffer;
    }
    MessageType operator()(const ConsumeReply&) const {
      return MessageType::kConsumeReply;
    }
  };
  return std::visit(Visitor{}, message);
}

namespace {

/// Bytes of ByteWriter::write_varint(value): one per started 7-bit group.
std::size_t varint_size(std::uint64_t value) {
  return (static_cast<std::size_t>(std::bit_width(value | 1)) + 6) / 7;
}

/// Appends encode_body's fields to a buffer: a raw byte, or an LEB128
/// varint (seven bits a byte, low group first, high bit = more follow).
struct ByteWriter {
  std::vector<std::uint8_t> bytes;

  void write_u8(std::uint8_t value) { bytes.push_back(value); }
  void write_varint(std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) {
      bytes.push_back(static_cast<std::uint8_t>(value) | 0x80);
    }
    bytes.push_back(static_cast<std::uint8_t>(value));
  }
};

/// Counts the bytes ByteWriter would append, so a message can be sized
/// without building its buffer.
struct SizeCounter {
  std::size_t size = 0;

  void write_u8(std::uint8_t) { ++size; }
  void write_varint(std::uint64_t value) { size += varint_size(value); }
};

template <typename Out>
void encode_body(Out& out, const CountUpdate& m) {
  out.write_varint(m.reporter);
  out.write_varint(m.version);
  out.write_varint(m.entries.size());
  for (const CountUpdate::Entry& entry : m.entries) {
    out.write_varint(entry.peer);
    out.write_varint(entry.count);
  }
}

template <typename Out>
void encode_body(Out& out, const PairUpdate& m) {
  out.write_varint(m.to);
  out.write_varint(m.new_partner);
  out.write_varint(m.qubit);
  out.write_varint(m.new_partner_qubit);
  out.write_u8(static_cast<std::uint8_t>((m.z_bit ? 1 : 0) | (m.x_bit ? 2 : 0)));
}

template <typename Out>
void encode_body(Out& out, const ConsumeOffer& m) {
  out.write_varint(m.from);
  out.write_varint(m.to);
  out.write_varint(m.request_id);
  out.write_varint(m.initiator_qubit);
  out.write_varint(m.responder_qubit);
}

template <typename Out>
void encode_body(Out& out, const ConsumeReply& m) {
  out.write_varint(m.from);
  out.write_varint(m.to);
  out.write_varint(m.request_id);
  out.write_u8(m.accept ? 1 : 0);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  ByteWriter out;
  out.write_u8(static_cast<std::uint8_t>(message_type(message)));
  std::visit([&out](const auto& body) { encode_body(out, body); }, message);
  return std::move(out.bytes);
}

std::size_t encoded_size(const Message& message) {
  SizeCounter out;
  out.write_u8(static_cast<std::uint8_t>(message_type(message)));
  std::visit([&out](const auto& body) { encode_body(out, body); }, message);
  return out.size;
}

std::size_t encoded_size(const CountUpdate& update) {
  SizeCounter out;
  out.write_u8(static_cast<std::uint8_t>(MessageType::kCountUpdate));
  encode_body(out, update);
  return out.size;
}

std::size_t count_report_size(NodeId reporter, std::uint64_t version,
                              std::size_t node_count,
                              std::span<const std::uint32_t> counts) {
  require(reporter < node_count &&
              (counts.size() < node_count ||
               (counts.size() == node_count && counts[reporter] == 0)),
          "count_report_size: reporter or counts out of range");
  // Peer ids 0..n-1 take one byte each, plus one more per 7-bit boundary
  // an id reaches; the reporter is not its own peer.
  std::size_t peer_bytes = node_count - varint_size(reporter);
  for (std::uint64_t boundary = 128; boundary < node_count; boundary <<= 7) {
    peer_bytes += node_count - boundary;
  }
  // Every count takes one byte, plus one more per 7-bit boundary it
  // reaches; zeros (absent peers) take just the one. A row whose OR is
  // below 2^7 reaches none, so only a row with a large count is tallied.
  std::size_t count_bytes = node_count - 1;
  std::uint32_t any = 0;
  for (const std::uint32_t count : counts) any |= count;
  if (any >= (1u << 7)) {
    for (const std::uint32_t count : counts) {
      count_bytes += static_cast<std::size_t>(count >= (1u << 7)) + (count >= (1u << 14)) +
                     (count >= (1u << 21)) + (count >= (1u << 28));
    }
  }
  // The type tag, then encode_body's fields in order.
  return 1 + varint_size(reporter) + varint_size(version) +
         varint_size(node_count - 1) + peer_bytes + count_bytes;
}

}  // namespace poq::net
