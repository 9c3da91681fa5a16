// Replay-divergence detector: hash primitives, recorder diffing, and the
// end-to-end reproducibility contract of a full teleoperation run.
#include <gtest/gtest.h>

#include "check/frame_hash.hpp"
#include "check/replay.hpp"
#include "core/teleop.hpp"
#include "net/framing.hpp"

namespace rdsim::check {
namespace {

TEST(Fnv1a, IsDeterministicAndOrderSensitive) {
  Fnv1a a;
  a.u64(1);
  a.f64(2.5);
  Fnv1a b;
  b.u64(1);
  b.f64(2.5);
  EXPECT_EQ(a.digest(), b.digest());

  Fnv1a c;
  c.f64(2.5);
  c.u64(1);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Fnv1a, DistinguishesDoubleBitPatterns) {
  Fnv1a pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);  // same value, different bits: replay wants bit-exactness
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(FrameHash, SensitiveToEveryActorField) {
  sim::WorldFrame frame;
  frame.frame_id = 42;
  frame.sim_time_us = 1000000;
  frame.ego.id = 1;
  frame.ego.state.position = {10.0, 5.0};
  const std::uint64_t base = hash_frame(frame);

  sim::WorldFrame moved = frame;
  moved.ego.state.position.x += 1e-12;
  EXPECT_NE(hash_frame(moved), base);

  sim::WorldFrame extra = frame;
  extra.others.push_back(sim::ActorSnapshot{});
  EXPECT_NE(hash_frame(extra), base);

  EXPECT_EQ(hash_frame(frame), base);  // hashing is pure
}

TEST(ReplayRecorder, ChainDigestMatchesChainEquality) {
  ReplayRecorder a, b;
  for (std::uint64_t tick = 0; tick < 100; ++tick) {
    a.record_tick(tick, tick * 31, tick * 17);
    b.record_tick(tick, tick * 31, tick * 17);
  }
  EXPECT_EQ(a.chain_digest(), b.chain_digest());
  EXPECT_EQ(a.size(), 100u);

  b.record_tick(100, 1, 1);
  EXPECT_NE(a.chain_digest(), b.chain_digest());
}

TEST(DiffReplays, IdenticalRecordingsDoNotDiverge) {
  ReplayRecorder a, b;
  for (std::uint64_t tick = 0; tick < 10; ++tick) {
    a.record_tick(tick, tick, tick);
    b.record_tick(tick, tick, tick);
  }
  const DivergenceReport report = diff_replays(a, b);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.summary(), "replays identical");
}

TEST(DiffReplays, PinpointsFirstDivergentTick) {
  ReplayRecorder a, b;
  for (std::uint64_t tick = 0; tick < 50; ++tick) {
    a.record_tick(tick, tick * 7, 99);
    // Frame hash diverges from tick 23 onward; net state stays equal.
    b.record_tick(tick, tick >= 23 ? tick * 7 + 1 : tick * 7, 99);
  }
  const DivergenceReport report = diff_replays(a, b);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_tick, 23u);
  EXPECT_EQ(report.first_divergent_index, 23u);
  EXPECT_TRUE(report.frame_differs);
  EXPECT_FALSE(report.net_differs);
  EXPECT_NE(report.summary().find("tick 23"), std::string::npos) << report.summary();
}

TEST(DiffReplays, ReportsLengthMismatchWhenPrefixAgrees) {
  ReplayRecorder a, b;
  for (std::uint64_t tick = 0; tick < 10; ++tick) {
    a.record_tick(tick, 1, 2);
    if (tick < 7) b.record_tick(tick, 1, 2);
  }
  const DivergenceReport report = diff_replays(a, b);
  ASSERT_TRUE(report.diverged);
  EXPECT_TRUE(report.length_mismatch);
  EXPECT_EQ(report.first_divergent_index, 7u);
  EXPECT_EQ(report.first_divergent_tick, 7u);
}

// ----- known answers: the link fingerprints across the tc verbs -----

/// Digest of hash_channel and hash_qdisc after every poll of one phase of a
/// fixed packet script. Each 1 ms tick sends a downlink packet on stream 1
/// and, every third tick, an uplink one on stream 2; the script, the
/// endpoint of both streams, answers every stream 1 delivery with an uplink
/// packet, so endpoint sends go back into the qdisc between polls, as ACKs do.
struct LinkScript final : net::PacketEndpoint {
  LinkScript() {
    channel.register_stream(1, *this);
    channel.register_stream(2, *this);
  }

  void on_packet(const net::ProtocolHeader& header, net::ByteReader& body,
                 net::LinkDirection, util::TimePoint now) override {
    if (header.stream_id != 1) return;
    channel.send(net::LinkDirection::kUplink,
                 net::ProtocolHeader::seal(2, net::SegmentType::kAck, {body.u8()}), 40,
                 now);
  }

  std::uint64_t run_phase(int ticks) {
    Fnv1a h;
    for (int i = 0; i < ticks; ++i, ++tick) {
      const util::TimePoint now = util::TimePoint::from_micros(tick * 1000);
      const auto tag = static_cast<std::uint8_t>(tick);
      channel.send(net::LinkDirection::kDownlink,
                   net::ProtocolHeader::seal(1, net::SegmentType::kData,
                                             net::Payload(1 + tick % 97, tag)),
                   200 + static_cast<std::uint32_t>(tick % 1200), now);
      if (tick % 3 == 0) {
        channel.send(net::LinkDirection::kUplink,
                     net::ProtocolHeader::seal(2, net::SegmentType::kData, {tag}), 64, now);
      }
      channel.poll(now);
      h.u64(hash_channel(channel));
      h.u64(hash_qdisc(channel.tc().root()));
    }
    return h.digest();
  }

  net::Channel channel{29};
  std::int64_t tick{0};
};

TEST(LinkHash, KnownAnswerAcrossPfifoNetemAddChangeAndDel) {
  LinkScript script;
  const std::uint64_t pfifo = script.run_phase(50);
  script.channel.tc().execute("qdisc add dev lo root netem delay 5ms loss 5%");
  const std::uint64_t added = script.run_phase(150);
  script.channel.tc().execute("qdisc change dev lo root netem delay 2ms loss 5% reorder 25%");
  const std::uint64_t changed = script.run_phase(150);
  EXPECT_GT(script.channel.tc().root().stats().dropped_loss, 0u);
  EXPECT_GT(script.channel.tc().root().stats().reordered, 0u);
  script.channel.tc().execute("qdisc del dev lo root");
  const std::uint64_t deleted = script.run_phase(50);
  // Recorded on the code before Channel owned its qdisc; a rewrite of the
  // link must reproduce every packet id, netem draw and counter.
  EXPECT_EQ(pfifo, 0xe68a88b2056e940full);
  EXPECT_EQ(added, 0x7956dc5bd003ef8aull);
  EXPECT_EQ(changed, 0xa677a4f122ff129dull);
  EXPECT_EQ(deleted, 0x737280f8ba289fd0ull);
}

// ----- end-to-end: the simulator's reproducibility contract -----

ReplayRecorder record_run(std::uint64_t seed) {
  ReplayRecorder recorder;
  core::RunConfig rc;
  rc.run_id = "replay";
  rc.subject_id = "T0";
  rc.seed = seed;
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.02}});
  rc.replay = &recorder;
  core::TeleopSession session{std::move(rc), sim::make_following_scenario()};
  session.run();
  return recorder;
}

TEST(ReplayEndToEnd, SameSeedRunsHashIdentically) {
  const ReplayRecorder a = record_run(11);
  const ReplayRecorder b = record_run(11);
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a.chain_digest(), b.chain_digest());
  const DivergenceReport report = diff_replays(a, b);
  EXPECT_FALSE(report.diverged) << report.summary();
}

TEST(ReplayEndToEnd, KnownAnswerChainAcrossNetemAddAndDel) {
  // Stepped only until the injector has added and deleted its rule, plus
  // 200 ticks on the restored pfifo.
  ReplayRecorder recorder;
  core::RunConfig rc;
  rc.run_id = "replay";
  rc.seed = 29;
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kDelay, 25.0}});
  rc.replay = &recorder;
  core::TeleopSession session{std::move(rc), sim::make_following_scenario()};
  int after_del = 0;
  while (after_del < 200 && session.step()) {
    if (session.injector().log().size() >= 2) ++after_del;
  }
  ASSERT_EQ(session.injector().log().size(), 2u);
  EXPECT_TRUE(session.injector().log()[0].added);
  EXPECT_FALSE(session.injector().log()[1].added);
  EXPECT_EQ(recorder.size(), 4847u);
  EXPECT_EQ(recorder.chain_digest(), 0x688261fc53fc3625ull);
}

TEST(ReplayEndToEnd, PerturbedSeedIsFlaggedAtFirstDivergentTick) {
  const ReplayRecorder a = record_run(11);
  const ReplayRecorder b = record_run(12);
  const DivergenceReport report = diff_replays(a, b);
  ASSERT_TRUE(report.diverged);
  if (!report.length_mismatch) {
    // The runs share the fault plan structure, so early ticks (before the
    // first randomized event lands) agree and the detector names the exact
    // tick where the seed first matters.
    EXPECT_GT(a.chain()[report.first_divergent_index].tick, 0u);
    EXPECT_TRUE(report.frame_differs || report.net_differs);
  }
  EXPECT_NE(report.summary(), "replays identical");
}

}  // namespace
}  // namespace rdsim::check
