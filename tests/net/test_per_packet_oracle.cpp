// Differential oracles for the per-packet kernels.
//
// ChecksumMatchesWordSumReference compares the sealed header checksum with a
// byte-at-a-time reference of the 32-bit ones'-complement sum for every
// packet length from a bare header to 600 bytes. The RttEstimator tests pin
// a digest of StreamStats.srtt and StreamStats.rto after every step of a
// long stream run: on the fixed-delay link every RTT sample is equal, so
// the RTT variance decays geometrically through the subnormal range and
// settles there; on the jittered link it never does. Any rewrite of the
// estimator must leave both digests, and so every RTO the stream ever
// armed, unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/reliable_stream.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

/// The checksum as the header comment defines it, one byte at a time: the
/// packet read as little-endian 32-bit words, the tail zero-padded, the
/// checksum field read as zero, the words summed with end-around carry.
std::uint32_t reference_checksum(const Payload& packet) {
  std::uint64_t sum = 0;
  for (std::size_t word = 0; word < packet.size(); word += 4) {
    std::uint64_t value = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t at = word + k;
      const bool in_checksum = at >= ProtocolHeader::kChecksumOffset &&
                               at < ProtocolHeader::kChecksumOffset + 4;
      if (at < packet.size() && !in_checksum) {
        value |= std::uint64_t{packet[at]} << (8 * k);
      }
    }
    sum += value;
  }
  while (sum > 0xffffffffu) sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
}

TEST(ProtocolHeader, ChecksumMatchesWordSumReference) {
  std::uint32_t lcg = 0x2545f491u;
  auto next = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  };
  for (std::size_t size = ProtocolHeader::kSize; size <= 600; ++size) {
    Payload body(size - ProtocolHeader::kSize);
    for (auto& b : body) b = static_cast<std::uint8_t>(next());
    const auto stream = static_cast<std::uint16_t>(next());
    const auto type = static_cast<SegmentType>(next() % 3);
    const Payload packet = ProtocolHeader::seal(stream, type, body);
    ASSERT_EQ(packet.size(), size);
    std::uint32_t sealed = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      sealed |= std::uint32_t{packet[ProtocolHeader::kChecksumOffset + k]} << (8 * k);
    }
    EXPECT_EQ(sealed, reference_checksum(packet)) << "size " << size;
    EXPECT_TRUE(open_packet_view(packet).has_value()) << "size " << size;
  }
}

struct RttRun {
  std::uint64_t digest{0};
  StreamStats stats;
};

/// Sends one single-segment message per 1 ms step for `steps` steps over a
/// netem link (both directions cross the one root qdisc), then folds srtt and
/// rto into the digest after every step. From step `change_at` on the link
/// runs `later` instead. A 1 ms rto_min keeps the RTO from
/// being pinned at the floor, so the digest sees srtt + max(4 rttvar, 1 ms).
RttRun run_rtt(std::uint64_t seed, const std::string& netem, int steps,
               int change_at = -1, const std::string& later = {}) {
  Channel channel{seed};
  channel.tc().execute("qdisc add dev lo root netem " + netem);
  StreamConfig cfg;
  cfg.rto_min = Duration::millis(1);
  ReliableStream stream{channel, 1, LinkDirection::kDownlink, cfg};
  check::Fnv1a h;
  TimePoint now;
  for (int i = 0; i < steps; ++i) {
    if (i == change_at) channel.tc().execute("qdisc change dev lo root netem " + later);
    now += Duration::millis(1);
    stream.send_message(Payload(16, static_cast<std::uint8_t>(i)), 64, now);
    channel.poll(now);
    stream.step(now);
    while (stream.pop_delivered()) {
    }
    h.f64(stream.stats().srtt.value());
    h.f64(stream.stats().rto.value());
  }
  return {h.digest(), stream.stats()};
}

TEST(RttEstimator, FixedDelayLinkPinsSrttAndRtoAfterEveryStep) {
  const RttRun run = run_rtt(5, "delay 20ms", 7000);
  // Enough equal samples for the variance to decay past the smallest normal
  // double (about 2 500 updates) and settle in the subnormal range.
  EXPECT_GE(run.stats.segments_sent, 6000u);
  EXPECT_EQ(run.stats.srtt.value(), 40.0);
  EXPECT_EQ(run.stats.rto.value(), 41.0);
  EXPECT_EQ(run.digest, 0x353adced9dddbe00ULL) << std::hex << run.digest;
}

TEST(RttEstimator, DelayStepAfterTheVarianceSettledPinsSrttAndRto) {
  // The first RTT deviation after 4 000 equal samples meets a variance that
  // has sat in the subnormal range for over a thousand updates. The delay
  // falls: a longer RTT would outlast the 41 ms RTO, and Karn's rule would
  // then keep every later sample out of the estimator.
  const RttRun run = run_rtt(5, "delay 20ms", 7000, 4000, "delay 18ms");
  EXPECT_GE(run.stats.segments_sent, 6000u);
  EXPECT_EQ(run.digest, 0x788356b599dcb669ULL) << std::hex << run.digest;
}

TEST(RttEstimator, JitteredLinkPinsSrttAndRtoAfterEveryStep) {
  const RttRun run = run_rtt(23, "delay 20ms 8ms", 7000);
  EXPECT_GE(run.stats.segments_sent, 6000u);
  EXPECT_EQ(run.digest, 0xf2d5f3146c9fce41ULL) << std::hex << run.digest;
}

}  // namespace
}  // namespace rdsim::net
