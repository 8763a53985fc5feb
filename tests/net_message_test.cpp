#include "net/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::net {
namespace {

TEST(Message, PairUpdateIsCompact) {
  // The repointing notice is tiny: tag + 4 small varints + the paper's
  // "only 2 bits of classical information", packed into one byte — 6
  // bytes for small node and qubit ids.
  PairUpdate m;
  m.to = 3;
  m.new_partner = 1;
  m.qubit = 5;
  m.new_partner_qubit = 6;
  EXPECT_EQ(encoded_size(m), 6u);
}

TEST(Message, AllFourBitCombinationsSurvive) {
  // The Bell-measurement bits travel in the notice's last byte: z is bit
  // 0, x is bit 1.
  for (bool z : {false, true}) {
    for (bool x : {false, true}) {
      PairUpdate m;
      m.z_bit = z;
      m.x_bit = x;
      EXPECT_EQ(encode(m).back(), (z ? 1u : 0u) | (x ? 2u : 0u)) << z << x;
    }
  }
}

// The wire layout byte for byte, one message of each kind: the tag, then
// the fields in declaration order as LEB128 varints (seven bits a byte,
// low group first, high bit set while more follow), with the z/x bits and
// the accept flag as one raw byte. Values straddle the one-, two- and
// three-byte varint lengths, so a reordered field or a changed varint
// shows here before it moves any control_bytes.
TEST(Message, EncodeGoldenBytes) {
  using Bytes = std::vector<std::uint8_t>;
  CountUpdate count;
  count.reporter = 4;
  count.version = 300;
  count.entries = {{0, 3}, {9, 128}};
  EXPECT_EQ(encode(count), (Bytes{2, 4, 0xAC, 0x02, 2, 0, 3, 9, 0x80, 0x01}));

  const PairUpdate notice{3, 1, 5, 16384, true, false};
  EXPECT_EQ(encode(notice), (Bytes{6, 3, 1, 5, 0x80, 0x80, 0x01, 0x01}));

  const ConsumeOffer offer{2, 9, 555, 127, 128};
  EXPECT_EQ(encode(offer), (Bytes{7, 2, 9, 0xAB, 0x04, 0x7F, 0x80, 0x01}));

  const ConsumeReply reply{9, 2, 1, true};
  EXPECT_EQ(encode(reply), (Bytes{8, 9, 2, 1, 1}));
}

/// Reads encode()'s layout back in the tests: a raw byte, or an LEB128
/// varint. The library has no decoder (no run reads bytes), so the round
/// trips below check encode against this reader of the documented layout.
class WireReader {
 public:
  explicit WireReader(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::uint8_t read_u8() {
    EXPECT_LT(pos_, bytes_.size()) << "read past the end";
    return pos_ < bytes_.size() ? bytes_[pos_++] : 0;
  }
  std::uint64_t read_varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = read_u8();
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    ADD_FAILURE() << "varint longer than ten bytes";
    return value;
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// The count report carrying `value` as its version: the one field that
/// holds any 64-bit value, so the varint tests write through it.
std::vector<std::uint8_t> version_bytes(std::uint64_t value) {
  CountUpdate m;
  m.version = value;
  return encode(m);
}

/// The varint `version_bytes(value)` holds, read back; the whole message
/// must be consumed.
std::uint64_t read_version(const std::vector<std::uint8_t>& bytes) {
  WireReader reader(bytes);
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kCountUpdate));
  EXPECT_EQ(reader.read_varint(), 0u);  // reporter
  const std::uint64_t version = reader.read_varint();
  EXPECT_EQ(reader.read_varint(), 0u);  // entry count
  EXPECT_TRUE(reader.exhausted());
  return version;
}

TEST(Bytes, VarintSmallValuesOneByte) {
  const std::size_t empty = encode(CountUpdate{}).size();
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL}) {
    const auto bytes = version_bytes(v);
    EXPECT_EQ(bytes.size(), empty) << v;
    EXPECT_EQ(read_version(bytes), v);
  }
}

TEST(Bytes, VarintBoundaries) {
  const std::size_t empty = encode(CountUpdate{}).size();
  const std::vector<std::pair<std::uint64_t, std::size_t>> cases = {
      {128, 2},
      {16383, 2},
      {16384, 3},
      {std::uint64_t{1} << 32, 5},
      {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& [v, length] : cases) {
    const auto bytes = version_bytes(v);
    EXPECT_EQ(bytes.size(), empty - 1 + length) << v;
    EXPECT_EQ(read_version(bytes), v);
  }
}

TEST(Message, CountUpdateRoundTrip) {
  CountUpdate original;
  original.reporter = 4;
  original.version = 123456;
  original.entries = {{0, 3}, {2, 0}, {9, 77}};
  WireReader reader(encode(original));
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kCountUpdate));
  EXPECT_EQ(reader.read_varint(), 4u);
  EXPECT_EQ(reader.read_varint(), 123456u);
  ASSERT_EQ(reader.read_varint(), 3u);
  for (const CountUpdate::Entry& entry : original.entries) {
    EXPECT_EQ(reader.read_varint(), entry.peer);
    EXPECT_EQ(reader.read_varint(), entry.count);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, CountUpdateEmptyEntries) {
  CountUpdate original;
  original.reporter = 1;
  WireReader reader(encode(original));
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kCountUpdate));
  EXPECT_EQ(reader.read_varint(), 1u);
  EXPECT_EQ(reader.read_varint(), 0u);
  EXPECT_EQ(reader.read_varint(), 0u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, PairUpdateRoundTrip) {
  PairUpdate original;
  original.to = 6;
  original.new_partner = 14;
  original.qubit = 9001;
  original.new_partner_qubit = 9002;
  original.z_bit = true;
  original.x_bit = true;
  WireReader reader(encode(original));
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kPairUpdate));
  EXPECT_EQ(reader.read_varint(), 6u);
  EXPECT_EQ(reader.read_varint(), 14u);
  EXPECT_EQ(reader.read_varint(), 9001u);
  EXPECT_EQ(reader.read_varint(), 9002u);
  EXPECT_EQ(reader.read_u8(), 3u);  // z_bit | x_bit << 1
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, ConsumeOfferRoundTrip) {
  ConsumeOffer original;
  original.from = 2;
  original.to = 9;
  original.request_id = 555;
  original.initiator_qubit = 1234567;
  original.responder_qubit = 7654321;
  WireReader reader(encode(original));
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kConsumeOffer));
  EXPECT_EQ(reader.read_varint(), 2u);
  EXPECT_EQ(reader.read_varint(), 9u);
  EXPECT_EQ(reader.read_varint(), 555u);
  EXPECT_EQ(reader.read_varint(), 1234567u);
  EXPECT_EQ(reader.read_varint(), 7654321u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, ConsumeReplyRoundTrip) {
  ConsumeReply original;
  original.from = 9;
  original.to = 2;
  original.request_id = 555;
  original.accept = true;
  WireReader reader(encode(original));
  EXPECT_EQ(reader.read_u8(), static_cast<std::uint8_t>(MessageType::kConsumeReply));
  EXPECT_EQ(reader.read_varint(), 9u);
  EXPECT_EQ(reader.read_varint(), 2u);
  EXPECT_EQ(reader.read_varint(), 555u);
  EXPECT_EQ(reader.read_u8(), 1u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, TypeTagsStable) {
  // control_bytes counts these tags, so their values never move.
  EXPECT_EQ(message_type(CountUpdate{}), MessageType::kCountUpdate);
  EXPECT_EQ(message_type(PairUpdate{}), MessageType::kPairUpdate);
  EXPECT_EQ(message_type(ConsumeOffer{}), MessageType::kConsumeOffer);
  EXPECT_EQ(message_type(ConsumeReply{}), MessageType::kConsumeReply);
  EXPECT_EQ(encode(CountUpdate{}).front(), 2u);
  EXPECT_EQ(encode(PairUpdate{}).front(), 6u);
  EXPECT_EQ(encode(ConsumeOffer{}).front(), 7u);
  EXPECT_EQ(encode(ConsumeReply{}).front(), 8u);
}

TEST(Message, EncodedSizeMatchesEncodeLength) {
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    CountUpdate m;
    m.reporter = static_cast<NodeId>(rng.uniform_index(1000));
    const auto entries = rng.uniform_index(20);
    for (std::size_t e = 0; e < entries; ++e) {
      m.entries.push_back({static_cast<NodeId>(rng.uniform_index(1000)),
                           static_cast<std::uint32_t>(rng.uniform_index(100000))});
    }
    EXPECT_EQ(encoded_size(m), encode(m).size());
  }
}

// The size-only pass must agree with the encoder exactly where a varint
// grows a byte (127/128, 16383/16384, ...), for every field of a count
// report and for every message type through the Message overload.
TEST(Message, EncodedSizeMatchesEncodeAtVarintBoundaries) {
  const std::vector<std::uint64_t> edges = {0,     1,     127,   128,        16383,
                                            16384, 2097151, 2097152, 0xFFFFFFFFu};
  for (const std::uint64_t a : edges) {
    for (const std::uint64_t b : edges) {
      CountUpdate m;
      m.reporter = static_cast<NodeId>(a);
      m.version = b;
      m.entries.push_back({static_cast<NodeId>(b), static_cast<std::uint32_t>(a)});
      m.entries.push_back({static_cast<NodeId>(a), static_cast<std::uint32_t>(b)});
      EXPECT_EQ(encoded_size(m), encode(m).size()) << a << " " << b;
      EXPECT_EQ(encoded_size(Message(m)), encode(m).size()) << a << " " << b;
    }
    // 127/128 and 16383/16384 entries move the entry-count varint too.
    CountUpdate wide;
    wide.entries.resize(static_cast<std::size_t>(std::min<std::uint64_t>(a, 16384)));
    EXPECT_EQ(encoded_size(wide), encode(wide).size()) << a;

    const auto id = static_cast<NodeId>(a);
    const std::vector<Message> bodies = {
        PairUpdate{id, id, a, a, false, true},
        ConsumeOffer{id, id, a, a, a},
        ConsumeReply{id, id, a, false},
    };
    for (const Message& body : bodies) {
      EXPECT_EQ(encoded_size(body), encode(body).size())
          << a << " type " << static_cast<int>(message_type(body));
    }
  }
}

/// The dense report the slow way: one entry per other node, ascending,
/// with `live[peer]` as the count (0 = absent).
CountUpdate dense_report(NodeId reporter, std::uint64_t version,
                         const std::vector<std::uint32_t>& live) {
  CountUpdate m;
  m.reporter = reporter;
  m.version = version;
  m.entries.reserve(live.size());
  for (NodeId peer = 0; peer < live.size(); ++peer) {
    if (peer != reporter) m.entries.push_back({peer, live[peer]});
  }
  return m;
}

// The closed form against the encoder on random rows, with reporters,
// versions, counts and (through the node count) peer ids on both sides
// of each varint boundary, and with empty, full and partly live rows.
TEST(Message, CountReportSizeMatchesEncodedSize) {
  util::Rng rng(0xC0DE);
  const std::vector<std::uint64_t> edges = {0,        1,        127,           128,
                                            16383,    16384,    (1u << 21) - 1, 1u << 21,
                                            (1u << 28) - 1, 1u << 28, 0xFFFFFFFFu};
  // 2^21 + 1 nodes hold peer ids 2^21 - 1 and 2^21; that cell runs only
  // a full and a partly live row, as each is a 2M-entry report.
  const std::vector<std::size_t> node_counts = {2,     3,     5,     127,   128,  129,
                                                130,   16383, 16384, 16385, 16386, (1u << 21) + 1};
  std::size_t checked = 0;
  for (const std::size_t n : node_counts) {
    const bool huge = n > 20000;
    for (int row = huge ? 1 : 0; row < (huge ? 3 : 12); ++row) {
      // Reporters at both ends and at every boundary below n.
      std::vector<NodeId> reporters = {0, static_cast<NodeId>(n - 1),
                                       static_cast<NodeId>(rng.uniform_index(n))};
      for (const std::uint64_t edge : edges) {
        if (edge < n && !huge) reporters.push_back(static_cast<NodeId>(edge));
      }
      const NodeId reporter = reporters[rng.uniform_index(reporters.size())];
      const std::uint64_t version = rng.bernoulli(0.5) ? edges[rng.uniform_index(edges.size())]
                                                       : rng();
      // Empty, full, or a random share of live partners; a live count is
      // a varint boundary value or a small one, and never 0.
      const double live_share = row % 3 == 0   ? 0.0
                                : row % 3 == 1 ? 1.0
                                               : static_cast<double>(rng.uniform_index(101)) / 100.0;
      std::vector<std::uint32_t> live(n, 0);
      std::vector<std::uint32_t> live_counts;
      for (NodeId peer = 0; peer < n; ++peer) {
        if (peer == reporter || !rng.bernoulli(live_share)) continue;
        const std::uint64_t pick = edges[rng.uniform_index(edges.size())];
        live[peer] = pick == 0 ? 1 + static_cast<std::uint32_t>(rng.uniform_index(200))
                               : static_cast<std::uint32_t>(pick);
        live_counts.push_back(live[peer]);
      }
      const CountUpdate report = dense_report(reporter, version, live);
      ASSERT_EQ(count_report_size(reporter, version, n, live_counts), encoded_size(report))
          << "n " << n << " reporter " << reporter << " version " << version << " live "
          << live_counts.size();
      // The reporter's whole dense row (zeros and its own 0 included), as
      // gossip passes its mirror row, sizes the same report.
      ASSERT_EQ(count_report_size(reporter, version, n, live), encoded_size(report))
          << "dense row, n " << n << " reporter " << reporter;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);

  // Peer ids reach 2^28 only in a 2^28-node report (2 GB of entries), so
  // around each boundary the closed form is checked one node at a time: a
  // report one node wider carries one more absent peer, whose entry is
  // sized by the encoder, and its entry-count varint may grow.
  const auto varint_size = [](std::uint64_t value) {
    CountUpdate m;
    m.version = value;
    return encoded_size(m) - encoded_size(CountUpdate{}) + 1;
  };
  const std::vector<std::uint32_t> some_live = {1, 127, 128, 16384, 1u << 28};
  for (const std::size_t boundary : {std::size_t{128}, std::size_t{16384}, std::size_t{1} << 21,
                                      std::size_t{1} << 28}) {
    for (std::size_t n = boundary - 2; n <= boundary + 2; ++n) {
      CountUpdate one_absent;
      one_absent.entries.push_back({static_cast<NodeId>(n), 0});
      const std::size_t entry_bytes = encoded_size(one_absent) - encoded_size(CountUpdate{});
      const std::size_t growth = entry_bytes + varint_size(n) - varint_size(n - 1);
      EXPECT_EQ(count_report_size(7, 9, n + 1, some_live) - count_report_size(7, 9, n, some_live),
                growth)
          << n;
    }
  }
}

TEST(Message, CountReportSizeRejectsOutOfRangeRows) {
  const std::vector<std::uint32_t> two = {1, 1};
  EXPECT_THROW((void)count_report_size(3, 0, 3, {}), PreconditionError);
  EXPECT_THROW((void)count_report_size(0, 0, 2, two), PreconditionError);
  EXPECT_NO_THROW((void)count_report_size(0, 0, 3, two));
  // A dense row has one entry per node and 0 at the reporter.
  const std::vector<std::uint32_t> row = {4, 0, 1};
  EXPECT_NO_THROW((void)count_report_size(1, 0, 3, row));
  EXPECT_THROW((void)count_report_size(0, 0, 3, row), PreconditionError);
  EXPECT_THROW((void)count_report_size(1, 0, 2, row), PreconditionError);
}

}  // namespace
}  // namespace poq::net
