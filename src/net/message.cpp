#include "net/message.hpp"

#include <bit>

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

/// Counts the bytes the ByteWriter calls in encode_body would append, so
/// a message can be sized without building its buffer.
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
  return out.bytes();
}

Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const auto type = static_cast<MessageType>(in.read_u8());
  switch (type) {
    case MessageType::kCountUpdate: {
      CountUpdate m;
      m.reporter = static_cast<NodeId>(in.read_varint());
      m.version = in.read_varint();
      const std::uint64_t count = in.read_varint();
      m.entries.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        CountUpdate::Entry entry;
        entry.peer = static_cast<NodeId>(in.read_varint());
        entry.count = static_cast<std::uint32_t>(in.read_varint());
        m.entries.push_back(entry);
      }
      return m;
    }
    case MessageType::kPairUpdate: {
      PairUpdate m;
      m.to = static_cast<NodeId>(in.read_varint());
      m.new_partner = static_cast<NodeId>(in.read_varint());
      m.qubit = in.read_varint();
      m.new_partner_qubit = in.read_varint();
      const std::uint8_t bits = in.read_u8();
      m.z_bit = (bits & 1) != 0;
      m.x_bit = (bits & 2) != 0;
      return m;
    }
    case MessageType::kConsumeOffer: {
      ConsumeOffer m;
      m.from = static_cast<NodeId>(in.read_varint());
      m.to = static_cast<NodeId>(in.read_varint());
      m.request_id = in.read_varint();
      m.initiator_qubit = in.read_varint();
      m.responder_qubit = in.read_varint();
      return m;
    }
    case MessageType::kConsumeReply: {
      ConsumeReply m;
      m.from = static_cast<NodeId>(in.read_varint());
      m.to = static_cast<NodeId>(in.read_varint());
      m.request_id = in.read_varint();
      m.accept = in.read_u8() != 0;
      return m;
    }
  }
  throw PreconditionError("decode: unknown message type tag");
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
  // reaches; zeros (absent peers) take just the one.
  std::size_t count_bytes = node_count - 1;
  for (const std::uint32_t count : counts) {
    count_bytes += static_cast<std::size_t>(count >= (1u << 7)) + (count >= (1u << 14)) +
                   (count >= (1u << 21)) + (count >= (1u << 28));
  }
  // The type tag, then encode_body's fields in order.
  return 1 + varint_size(reporter) + varint_size(version) +
         varint_size(node_count - 1) + peer_bytes + count_bytes;
}

}  // namespace poq::net
