#include <gtest/gtest.h>

#include <cstring>

#include "core/protocol.hpp"
#include "net/serialization.hpp"
#include "util/rng.hpp"

namespace rdsim::net {
namespace {

TEST(ByteWriterReader, RoundTripsAllTypes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-1234567890123LL);
  w.f64(3.14159);
  w.bytes({1, 2, 3});

  ByteReader r{w.data()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  const auto blob = r.bytes_view();
  EXPECT_EQ((std::vector<std::uint8_t>{blob.begin(), blob.end()}),
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, TruncationSetsNotOk) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.data()};
  r.u32();
  EXPECT_TRUE(r.ok());
  r.u32();  // nothing left
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // further reads return zero values
}

TEST(ByteReader, BytesViewReadsInPlace) {
  ByteWriter w;
  w.bytes({4, 5, 6});
  w.u8(9);
  const std::vector<std::uint8_t>& buf = w.take();
  ByteReader r{buf};
  const auto view = r.bytes_view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.data(), buf.data() + 4);  // just past the length prefix
  EXPECT_EQ(view[2], 6);
  EXPECT_EQ(r.u8(), 9);
  EXPECT_TRUE(r.ok());
}

TEST(ByteReader, BytesViewPastTheEndIsEmptyAndNotOk) {
  ByteWriter w;
  w.u32(5);  // claims five bytes, two follow
  w.u8(1);
  w.u8(2);
  ByteReader r{w.data()};
  EXPECT_TRUE(r.bytes_view().empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, CorruptLengthPrefixIsSafe) {
  ByteWriter w;
  w.u32(1000000);  // claims a million bytes follow
  ByteReader r{w.data()};
  EXPECT_TRUE(r.bytes_view().empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, EmptyBytes) {
  ByteWriter w;
  w.bytes({});
  w.u8(3);
  ByteReader r{w.data()};
  EXPECT_TRUE(r.bytes_view().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u8(), 3);
}

// ----- randomized round-trip (fuzz-style, seeded => reproducible) -----

// One randomly typed field. The same schedule drives the writer, the reader
// and the re-writer, so serialize -> deserialize -> re-serialize must be
// bit-identical.
struct FuzzField {
  int tag{0};  // 0=u8 1=u16 2=u32 3=u64 4=i64 5=f64 6=bytes
  std::uint64_t integer{0};
  double real{0.0};
  std::vector<std::uint8_t> blob;
};

std::vector<FuzzField> make_fuzz_fields(util::Random& rng) {
  const int n = rng.uniform_int(1, 12);
  std::vector<FuzzField> fields;
  for (int i = 0; i < n; ++i) {
    FuzzField f;
    f.tag = rng.uniform_int(0, 6);
    f.integer = (static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) << 32) ^
                static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    // Cover negatives, zeros, subnormal-ish and large magnitudes.
    switch (rng.uniform_int(0, 3)) {
      case 0: f.real = rng.normal(0.0, 1e-30); break;
      case 1: f.real = rng.normal(0.0, 1e30); break;
      case 2: f.real = 0.0; break;
      default: f.real = rng.uniform(-1e6, 1e6); break;
    }
    const int len = rng.uniform_int(0, 40);
    for (int c = 0; c < len; ++c) {
      f.blob.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    fields.push_back(std::move(f));
  }
  return fields;
}

void write_fields(ByteWriter& w, const std::vector<FuzzField>& fields) {
  for (const FuzzField& f : fields) {
    switch (f.tag) {
      case 0: w.u8(static_cast<std::uint8_t>(f.integer)); break;
      case 1: w.u16(static_cast<std::uint16_t>(f.integer)); break;
      case 2: w.u32(static_cast<std::uint32_t>(f.integer)); break;
      case 3: w.u64(f.integer); break;
      case 4: w.i64(static_cast<std::int64_t>(f.integer)); break;
      case 5: w.f64(f.real); break;
      default: w.bytes(f.blob); break;
    }
  }
}

TEST(SerializationFuzz, RandomFieldSequencesReserializeBitIdentically) {
  util::Random rng{20230612, 0xf022ULL};
  for (int iter = 0; iter < 1000; ++iter) {
    const std::vector<FuzzField> fields = make_fuzz_fields(rng);
    ByteWriter w;
    write_fields(w, fields);
    const std::vector<std::uint8_t> blob = w.take();

    // Deserialize with the same schedule, then re-serialize.
    ByteReader r{blob};
    ByteWriter w2;
    for (const FuzzField& f : fields) {
      switch (f.tag) {
        case 0: w2.u8(r.u8()); break;
        case 1: w2.u16(r.u16()); break;
        case 2: w2.u32(r.u32()); break;
        case 3: w2.u64(r.u64()); break;
        case 4: w2.i64(r.i64()); break;
        case 5: w2.f64(r.f64()); break;
        default: {
          const auto b = r.bytes_view();
          w2.bytes({b.begin(), b.end()});
          break;
        }
      }
    }
    ASSERT_TRUE(r.ok()) << "iteration " << iter;
    ASSERT_EQ(r.remaining(), 0u) << "iteration " << iter;
    ASSERT_EQ(blob, w2.take()) << "iteration " << iter;
  }
}

TEST(SerializationFuzz, LeasedBufferOfAnyCapacityWritesLikeAFreshWriter) {
  util::Random rng{777, 0xf022ULL};
  for (int iter = 0; iter < 200; ++iter) {
    const std::vector<FuzzField> fields = make_fuzz_fields(rng);
    ByteWriter fresh;
    write_fields(fresh, fields);
    const Payload expected = fresh.take();
    // A pooled lease arrives holding a previous packet's bytes.
    for (std::size_t capacity = 0; capacity <= 256; ++capacity) {
      Payload leased(capacity, static_cast<std::uint8_t>(0xa5 ^ capacity));
      ByteWriter w{std::move(leased)};
      write_fields(w, fields);
      ASSERT_EQ(w.take(), expected) << "iteration " << iter << " capacity " << capacity;
    }
  }
}

TEST(SerializationFuzz, TruncatedBuffersAreRejectedWithoutUb) {
  util::Random rng{99, 0xf022ULL};
  for (int iter = 0; iter < 1000; ++iter) {
    const std::vector<FuzzField> fields = make_fuzz_fields(rng);
    ByteWriter w;
    write_fields(w, fields);
    const std::vector<std::uint8_t>& blob = w.take();
    if (blob.empty()) continue;

    // Read the full schedule from a random strict prefix: the reader must
    // flag the truncation (not necessarily at the first field) and keep
    // returning zero values, never touching memory past the prefix.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(blob.size()) - 1));
    ByteReader r{blob.data(), cut};
    for (const FuzzField& f : fields) {
      switch (f.tag) {
        case 0: r.u8(); break;
        case 1: r.u16(); break;
        case 2: r.u32(); break;
        case 3: r.u64(); break;
        case 4: r.i64(); break;
        case 5: r.f64(); break;
        default: r.bytes_view(); break;
      }
    }
    ASSERT_FALSE(r.ok()) << "iteration " << iter << " cut " << cut;
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_TRUE(r.bytes_view().empty());
  }
}

TEST(SerializationFuzz, CommandMsgRoundTripsBitIdentically) {
  util::Random rng{4242, 0xf022ULL};
  for (int iter = 0; iter < 1000; ++iter) {
    core::CommandMsg m;
    m.sequence = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
    m.control.throttle = rng.uniform(0.0, 1.0);
    m.control.steer = rng.uniform(-1.0, 1.0);
    m.control.brake = rng.uniform(0.0, 1.0);
    m.control.reverse = rng.bernoulli(0.5);
    m.control.hand_brake = rng.bernoulli(0.1);
    m.sent_at_us = static_cast<std::int64_t>(rng.uniform_int(0, 1 << 30)) * 1000;
    m.based_on_frame = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));

    const Payload wire = m.encode();
    const auto decoded = core::CommandMsg::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << "iteration " << iter;
    ASSERT_EQ(decoded->encode(), wire) << "iteration " << iter;

    // Every strict prefix must be rejected cleanly.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(wire.size()) - 1));
    EXPECT_FALSE(core::CommandMsg::decode(
                     Payload{wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut)})
                     .has_value())
        << "iteration " << iter << " cut " << cut;
  }
}

}  // namespace
}  // namespace rdsim::net
