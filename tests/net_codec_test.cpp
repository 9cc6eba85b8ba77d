// Unit + property tests for the wire substrate: buffers, varints, the kz
// compressor, and the serialization registry.

#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "cats/messages.hpp"
#include "net/buffer.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

namespace kompics::net::test {
namespace {

TEST(Buffer, FixedWidthRoundTrip) {
  Bytes b;
  BufferWriter w(b);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.boolean(true);
  w.str("kompics");

  BufferReader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "kompics");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, VarIntBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1u << 21, 1ull << 35, 1ull << 63, ~0ull};
  Bytes b;
  BufferWriter w(b);
  for (auto v : values) w.var_u64(v);
  BufferReader r(b);
  for (auto v : values) EXPECT_EQ(r.var_u64(), v);
}

TEST(Buffer, ZigZagSigned) {
  const std::int64_t values[] = {0, -1, 1, -64, 63, -65, 1000000, -1000000,
                                 INT64_MAX, INT64_MIN};
  Bytes b;
  BufferWriter w(b);
  for (auto v : values) w.var_i64(v);
  BufferReader r(b);
  for (auto v : values) EXPECT_EQ(r.var_i64(), v);
}

TEST(Buffer, UnderflowThrows) {
  Bytes b{0x01};
  BufferReader r(b);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW(r.u32(), std::runtime_error);
}

TEST(Buffer, PatchU32) {
  Bytes b;
  BufferWriter w(b);
  w.u32(0);
  w.str("body");
  w.patch_u32(0, 42);
  BufferReader r(b);
  EXPECT_EQ(r.u32(), 42u);
}

// ---- kz compression --------------------------------------------------------

Bytes roundtrip(const Bytes& in) {
  Bytes packed;
  kz::compress(in, packed);
  return kz::decompress(packed);
}

TEST(Kz, EmptyInput) { EXPECT_EQ(roundtrip({}), Bytes{}); }

TEST(Kz, ShortInput) {
  Bytes in{1, 2, 3};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Kz, RepetitiveInputCompresses) {
  Bytes in;
  for (int i = 0; i < 4096; ++i) in.push_back(static_cast<std::uint8_t>(i % 7));
  Bytes packed;
  kz::compress(in, packed);
  EXPECT_LT(packed.size(), in.size() / 4) << "periodic data should compress well";
  EXPECT_EQ(kz::decompress(packed), in);
}

TEST(Kz, OverlappingMatchReplication) {
  // 'aaaa...' forces distance-1 matches with length > distance.
  Bytes in(1000, 'a');
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Kz, MalformedInputThrows) {
  Bytes bogus{0x05, 0x02, 0xff, 0xff};  // claims 5 bytes, bad token
  EXPECT_THROW(kz::decompress(bogus), std::runtime_error);
}

// Hostile streams must be rejected before any expansion: a throw that only
// comes after filling the declared (or overrun) size is the defect itself,
// so each rejection is also held to a wall-clock bound far below the time
// such a fill takes.
void expect_rejected_at_once(const Bytes& stream) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(kz::decompress(stream), std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
}

/// A kz stream declaring `declared` bytes: one literal run, then one match.
Bytes hostile_stream(std::uint64_t declared, const Bytes& literal, std::uint64_t distance,
                     std::uint64_t length) {
  Bytes out;
  BufferWriter w(out);
  w.var_u64(declared);
  w.u8(0x00);
  w.var_u64(literal.size());
  w.raw(literal.data(), literal.size());
  w.u8(0x01);
  w.var_u64(distance);
  w.var_u64(length);
  return out;
}

TEST(Kz, FifteenByteFrameCannotDemandGigabytes) {
  // Declared size 2^31+1, one literal, one match of length 2^31: without
  // bounds the receiver fills 2 GiB from 15 bytes of input.
  const Bytes stream = hostile_stream((1ull << 31) + 1, {0x61}, 1, 1ull << 31);
  ASSERT_EQ(stream.size(), 15u);
  expect_rejected_at_once(stream);
}

TEST(Kz, DeclaredSizeAboveFrameLimitIsRejected) {
  Bytes stream;
  BufferWriter w(stream);
  w.var_u64(1ull << 40);
  w.u8(0x00);
  w.var_u64(1);
  w.u8(0x61);
  expect_rejected_at_once(stream);
  // The limit itself is shared with the TCP frame bound: one byte over fails.
  Bytes over;
  BufferWriter wo(over);
  wo.var_u64(kMaxFrame + 1);
  expect_rejected_at_once(over);
}

TEST(Kz, TokensOverrunningTheDeclaredSizeAreRejected) {
  // A small declared size followed by a match far longer than what is left.
  expect_rejected_at_once(hostile_stream(16, {0x61}, 1, 1ull << 31));
  // Overrun by a single byte, by a match and by a literal run.
  expect_rejected_at_once(hostile_stream(8, {0x61}, 1, 8));
  const Bytes literal(9, 0x61);
  Bytes stream;
  BufferWriter w(stream);
  w.var_u64(8);
  w.u8(0x00);
  w.var_u64(literal.size());
  w.raw(literal.data(), literal.size());
  expect_rejected_at_once(stream);
  // The exact fit still decodes.
  EXPECT_EQ(kz::decompress(hostile_stream(8, {0x61}, 1, 7)), Bytes(8, 0x61));
}

class KzRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(KzRandomRoundTrip, RoundTripsExactly) {
  std::mt19937_64 rng(GetParam());
  // Mixture of random and structured content, random length.
  const std::size_t n = rng() % 20000;
  Bytes in(n);
  std::size_t i = 0;
  while (i < n) {
    if (rng() % 2 == 0) {
      const std::size_t run = std::min<std::size_t>(n - i, 1 + rng() % 64);
      const std::uint8_t byte = static_cast<std::uint8_t>(rng());
      for (std::size_t k = 0; k < run; ++k) in[i++] = byte;
    } else {
      in[i++] = static_cast<std::uint8_t>(rng());
    }
  }
  EXPECT_EQ(roundtrip(in), in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KzRandomRoundTrip, ::testing::Range(0, 25));

// ---- serialization registry -------------------------------------------------

class TestPing : public Message {
  KOMPICS_EVENT(TestPing, Message);

 public:
  TestPing(Address s, Address d, std::uint64_t n, std::string text)
      : Message(s, d), n(n), text(std::move(text)) {}
  std::uint64_t n;
  std::string text;
};

KOMPICS_REGISTER_MESSAGE(
    TestPing, 9001,
    [](const Message& m, BufferWriter& w) {
      const auto& p = static_cast<const TestPing&>(m);
      w.var_u64(p.n);
      w.str(p.text);
    },
    [](BufferReader& r, Address src, Address dst) -> MessagePtr {
      const std::uint64_t n = r.var_u64();
      std::string text = r.str();
      return std::make_shared<const TestPing>(src, dst, n, std::move(text));
    });

TEST(Serialization, RoundTrip) {
  TestPing p(Address::node(1, 10), Address::node(2, 20), 77, "hello");
  Bytes wire;
  SerializationRegistry::instance().serialize(p, wire);
  auto back = SerializationRegistry::instance().deserialize(wire);
  const auto* q = dynamic_cast<const TestPing*>(back.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->source(), p.source());
  EXPECT_EQ(q->destination(), p.destination());
  EXPECT_EQ(q->n, 77u);
  EXPECT_EQ(q->text, "hello");
}

TEST(Serialization, LookupResultKeepsViewRange) {
  cats::register_cats_serializers();
  const std::vector<cats::NodeRef> group{{10, Address::node(10)}, {20, Address::node(20)}};
  const cats::LookupResultMsg m(Address::node(1), Address::node(2), 77, 555, group, 4, true,
                                100, 900);
  Bytes wire;
  SerializationRegistry::instance().serialize(m, wire);
  auto back = SerializationRegistry::instance().deserialize(wire);
  const auto* q = dynamic_cast<const cats::LookupResultMsg*>(back.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->op, 77u);
  EXPECT_EQ(q->key, 555u);
  EXPECT_EQ(q->group, group);
  EXPECT_EQ(q->view_version, 4u);
  EXPECT_TRUE(q->ranged);
  EXPECT_EQ(q->lo, 100u);
  EXPECT_EQ(q->hi, 900u);
  // A frame cut anywhere inside the range fields (flag + two u64) is
  // rejected instead of read past its end.
  for (std::size_t cut = 1; cut <= 17; ++cut) {
    const Bytes truncated(wire.begin(), wire.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(SerializationRegistry::instance().deserialize(truncated), std::runtime_error)
        << "cut " << cut << " bytes";
  }
}

class Unregistered : public Message {
  KOMPICS_EVENT(Unregistered, Message);

 public:
  using Message::Message;
};

TEST(Serialization, UnregisteredTypeThrows) {
  Unregistered u(Address::node(1), Address::node(2));
  Bytes wire;
  EXPECT_THROW(SerializationRegistry::instance().serialize(u, wire), std::logic_error);
}

TEST(Serialization, UnknownWireIdThrows) {
  Bytes wire;
  BufferWriter w(wire);
  w.var_u64(123456789);  // never registered
  Address::node(1).write(w);
  Address::node(2).write(w);
  EXPECT_THROW(SerializationRegistry::instance().deserialize(wire), std::runtime_error);
}

TEST(Address, KeyOrderingAndFormat) {
  Address a{0x7f000001, 80};
  EXPECT_EQ(a.to_string(), "127.0.0.1:80");
  EXPECT_LT(Address::node(1).key(), Address::node(2).key());
  EXPECT_TRUE(Address::node(1) < Address::node(2));
  EXPECT_FALSE(Address{}.valid());
}

}  // namespace
}  // namespace kompics::net::test
