// Zero-allocation packet path: pool semantics, heap tie-break, move-vs-copy
// byte identity, idle-tick allocation gate, and the unified qdisc
// introspection surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/reliable_stream.hpp"
#include "util/alloc_hook.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------- PayloadPool

TEST(PayloadPool, ReusesReleasedBuffers) {
  PayloadPool pool;
  Payload a = pool.acquire(100);
  a.assign(100, 0xab);
  const std::uint8_t* const data = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.cached(), 1u);

  Payload b = pool.acquire(100);  // as large as the released buffer
  EXPECT_EQ(b.data(), data);      // LIFO list handed the same buffer back
  EXPECT_TRUE(b.empty());         // ...cleared
  EXPECT_GE(b.capacity(), 100u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().fresh, 1u);
}

TEST(PayloadPool, ShortBufferIsGrownAndCountedFresh) {
  PayloadPool pool;
  pool.release(pool.acquire(16));
  Payload p = pool.acquire(1000);  // the cached 16-byte buffer, grown
  EXPECT_GE(p.capacity(), 1000u);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(pool.cached(), 0u);
  EXPECT_EQ(pool.stats().fresh, 2u);
  EXPECT_EQ(pool.stats().reused, 0u);
}

TEST(PayloadPool, AckSizedBufferServesADataSegment) {
  // A stream link recycles ACK buffers (23 B) into DATA segments (up to 77 B
  // in the campaign workloads); the pooled buffer must not need growing.
  PayloadPool pool;
  pool.release(pool.acquire(23));
  util::AllocCounter allocs;
  Payload p = pool.acquire(77);
  EXPECT_EQ(allocs.delta(), 0u);
  EXPECT_GE(p.capacity(), 77u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  EXPECT_EQ(pool.stats().reused, 1u);
}

// -------------------------------------------------------------------- Packet

TEST(Packet, EffectiveWireSizeTakesTheLargerOfWireAndPayload) {
  Packet p;
  p.payload = {1, 2, 3};
  p.wire_size = 0;
  EXPECT_EQ(p.effective_wire_size(), 3u);  // payload dominates
  p.wire_size = 1500;
  EXPECT_EQ(p.effective_wire_size(), 1500u);  // declared size dominates
  p.payload.clear();
  EXPECT_EQ(p.effective_wire_size(), 1500u);
  p.wire_size = 0;
  EXPECT_EQ(p.effective_wire_size(), 0u);  // both empty
}

TEST(Packet, CloneCopiesEveryField) {
  Packet p;
  p.id = 7;
  p.flow = 1;
  p.payload = {9, 8, 7};
  p.wire_size = 44;
  p.enqueued_at = TimePoint::from_micros(123);
  const Packet c = p.clone();
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.flow, 1u);
  EXPECT_EQ(c.payload, p.payload);
  EXPECT_NE(c.payload.data(), p.payload.data());  // deep copy
  EXPECT_EQ(c.wire_size, 44u);
  EXPECT_EQ(c.enqueued_at.count_micros(), 123);
}

// -------------------------------------------- netem heap order / tfifo pin

/// With a fixed delay and no jitter, every packet enqueued at the same tick
/// has an identical release time: the binary heap must break the tie by
/// insertion sequence, reproducing tfifo (and the old sorted-vector) order.
TEST(NetemHeap, EqualReleaseTimesPreserveInsertionOrder) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(10);
  NetemQdisc q{cfg, 1};
  for (std::uint64_t i = 0; i < 100; ++i) {
    Packet p;
    p.id = i;
    q.enqueue(std::move(p), TimePoint{});
  }
  const auto out = q.drain(TimePoint::from_micros(10000));
  ASSERT_EQ(out.size(), 100u);
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

/// Mixed release times: the released order must equal a stable sort of the
/// enqueue order by release time — exactly what the old sorted vector
/// produced. Staggered enqueues with decreasing delays create inversions.
TEST(NetemHeap, MatchesStableSortByReleaseTime) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  NetemQdisc q{cfg, 1};

  struct Expected {
    std::int64_t release_us;
    std::uint64_t id;
  };
  std::vector<Expected> expected;
  std::uint64_t id = 0;
  // Two config changes mid-stream give three delay regimes, so later
  // packets overtake earlier ones (tc change keeps queued packets).
  for (const std::int64_t delay_ms : {50, 10, 30}) {
    NetemConfig c;
    c.delay = Duration::millis(delay_ms);
    q.change(c);
    for (int i = 0; i < 10; ++i) {
      const std::int64_t t_us = static_cast<std::int64_t>(id) * 1000;
      Packet p;
      p.id = id;
      q.enqueue(std::move(p), TimePoint::from_micros(t_us));
      expected.push_back({t_us + delay_ms * 1000, id});
      ++id;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.release_us < b.release_us;
                   });
  const auto out = q.drain(TimePoint::from_micros(1000000));
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id) << "position " << i;
  }
}

TEST(NetemHeap, DuplicateIsReleasedBeforeTheOriginal) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(5);
  cfg.duplicate_probability = units::Probability{1.0};
  NetemQdisc q{cfg, 3};
  Packet p;
  p.id = 1;
  p.payload = {42};
  q.enqueue(std::move(p), TimePoint{});
  const auto out = q.drain(TimePoint::from_micros(5000));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].duplicate);   // clone was scheduled first
  EXPECT_FALSE(out[1].duplicate);
  EXPECT_EQ(out[0].payload, out[1].payload);
}

// ------------------------------------------------- move vs copy byte identity

/// Digest of every packet the channel dispatches (direction, stream id and
/// body) when sealed packets go out either in pooled buffers moved into
/// send() or as fresh copies.
std::uint64_t delivered_digest(std::uint64_t seed, const std::string& rule,
                               bool use_move_path) {
  Channel ch{seed};
  ch.tc().execute("qdisc add dev lo root " + rule);
  check::Fnv1a h;
  ch.register_stream(1, [&h](const ProtocolHeader& header, ByteReader body,
                             LinkDirection via, TimePoint) {
    h.u32(static_cast<std::uint32_t>(via));
    h.u32(header.stream_id);
    h.u64(body.remaining());
    for (std::size_t n = body.remaining(); n > 0; --n) h.u8(body.u8());
  });
  std::uint32_t fill = 0x12345u;
  for (std::int64_t tick = 0; tick < 500; ++tick) {
    const TimePoint now = TimePoint::from_micros(tick * 1000);
    Payload bytes(64 + static_cast<std::size_t>(tick % 700));
    for (auto& b : bytes) {
      fill = fill * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(fill >> 24);
    }
    const LinkDirection dir =
        tick % 3 == 0 ? LinkDirection::kUplink : LinkDirection::kDownlink;
    const auto wire = static_cast<std::uint32_t>(bytes.size()) + 40;
    if (use_move_path) {
      const std::size_t size = ProtocolHeader::kSize + bytes.size();
      ByteWriter w{ch.acquire_payload(size), size};
      ProtocolHeader::begin(w, 1, SegmentType::kData);
      w.raw(bytes.data(), bytes.size());
      Packet p;
      p.payload = ProtocolHeader::finish(w);
      p.wire_size = wire;
      ch.send(dir, std::move(p), now);
    } else {
      ch.send(dir, ProtocolHeader::seal(1, SegmentType::kData, bytes), wire, now);
    }
    ch.poll(now);
  }
  EXPECT_EQ(ch.checksum_failures(), 0u);
  EXPECT_EQ(ch.unroutable(), 0u);
  return h.digest();
}

TEST(PacketPath, MovedAndCopiedSendsDeliverIdenticalBytes) {
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    for (const std::string& rule :
         {std::string{"netem delay 20ms 5ms loss 2%"},
          std::string{"netem delay 20ms 5ms loss 5% reorder 10%"}}) {
      const std::uint64_t moved = delivered_digest(seed, rule, true);
      const std::uint64_t copied = delivered_digest(seed, rule, false);
      EXPECT_EQ(moved, copied) << "seed " << seed << " rule " << rule;
    }
  }
}

// ------------------------------------------------------ idle-tick allocation

TEST(PacketPath, IdleTicksDoNotAllocate) {
  Channel ch{5};
  ReliableStream stream{ch, 1, LinkDirection::kDownlink};
  // Prime: move one message through so every lazy structure exists, then
  // drain to quiescence.
  stream.send_message(Payload(512, 7), 512, TimePoint{});
  for (std::int64_t t = 0; t <= 500000; t += 5000) {
    ch.poll(TimePoint::from_micros(t));
    stream.step(TimePoint::from_micros(t));
    while (stream.pop_delivered()) {
    }
  }
  ASSERT_EQ(stream.unacked_segments(), 0u);

  util::AllocCounter allocs;
  for (std::int64_t t = 500000; t <= 5500000; t += 5000) {
    ch.poll(TimePoint::from_micros(t));
    stream.step(TimePoint::from_micros(t));
  }
  EXPECT_EQ(allocs.delta(), 0u) << "idle packet path must not touch the heap";
}

/// Sends one 64-byte packet in a pooled buffer at `now`, then polls.
void send_pooled_and_poll(Channel& ch, TimePoint now) {
  Packet p;
  p.payload = ch.acquire_payload(64);
  p.payload.resize(64);
  ch.send(LinkDirection::kDownlink, std::move(p), now);
  ch.poll(now);
}

/// A pooled buffer is out of the pool only while its packet is on the link:
/// the channel recycles the payload of a packet netem drops, by its loss
/// model or by its limit, as it recycles a delivered one.
TEST(PacketPath, DroppedPacketsReturnTheirBuffers) {
  for (const std::string rule : {"netem loss 100%", "netem delay 10ms limit 1"}) {
    Channel ch{3};
    ch.tc().execute("qdisc add dev lo root " + rule);
    for (std::int64_t tick = 0; tick < 50; ++tick) {
      send_pooled_and_poll(ch, TimePoint::from_micros(tick * 1000));
      EXPECT_EQ(ch.pool().cached() + ch.in_flight(), ch.pool().stats().fresh)
          << rule << " tick " << tick;
    }
    EXPECT_GE(ch.tc().root().stats().total_dropped(), 40u) << rule;
    EXPECT_LE(ch.pool().stats().fresh, 2u) << rule;
  }
}

/// A netem duplicate carries a heap copy of its original's buffer. The
/// channel frees that copy instead of pooling it, so the pool keeps only
/// buffers it handed out and stays as small as the link's peak backlog.
TEST(PacketPath, DuplicatesDoNotGrowThePool) {
  Channel ch{3};
  ch.tc().execute("qdisc add dev lo root netem delay 1ms duplicate 100%");
  for (std::int64_t tick = 0; tick < 50; ++tick) {
    send_pooled_and_poll(ch, TimePoint::from_micros(tick * 1000));
  }
  ch.poll(TimePoint::from_micros(60000));
  EXPECT_EQ(ch.in_flight(), 0u);
  EXPECT_EQ(ch.tc().root().stats().duplicated, 50u);
  EXPECT_EQ(ch.pool().cached(), ch.pool().stats().fresh);
}

TEST(PacketPath, WarmStreamTickReusesPooledPayloads) {
  Channel ch{5};
  ReliableStream stream{ch, 1, LinkDirection::kDownlink};
  const Payload msg(2000, 9);
  std::int64_t t = 0;
  auto tick = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += 5000;
      const TimePoint now = TimePoint::from_micros(t);
      stream.send_message(msg, 2000, now);
      ch.poll(now);
      stream.step(now);
      while (stream.pop_delivered()) {
      }
    }
  };
  tick(200);  // warm pools, maps and deques
  const auto before = ch.pool().stats();
  tick(200);
  const auto after = ch.pool().stats();
  // Steady state: every wire packet (DATA + ACK per tick) is served from the
  // freelist; no fresh payload allocations once warm.
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_GT(after.reused, before.reused);
}

/// Allocations, delivered messages and DATA segments of one pass of
/// `messages` multi-segment messages through a warm stream (mtu 1000,
/// netem delay 5 ms), measured after an identical warm-up pass. The clock
/// advances `poll` per tick, and every `send_every` ticks a message of
/// `payload_bytes` declaring `wire` bytes is sent. The payloads are built
/// before counting starts and handed over by move, so every allocation the
/// counter sees is the stream's own.
struct WarmPass {
  std::uint64_t allocs{0};
  std::uint64_t delivered{0};
  std::uint64_t segments{0};
};

WarmPass measure_warm_stream(std::uint32_t wire, std::size_t payload_bytes, int messages,
                             Duration poll, int send_every) {
  Channel ch{5};
  ch.tc().execute("qdisc add dev lo root netem delay 5ms");
  StreamConfig cfg;
  cfg.mtu = 1000;
  ReliableStream stream{ch, 1, LinkDirection::kDownlink, cfg};
  auto make_payloads = [&] {
    std::vector<Payload> out;
    for (int i = 0; i < messages; ++i) {
      out.emplace_back(payload_bytes, static_cast<std::uint8_t>(i));
    }
    return out;
  };
  TimePoint now;
  WarmPass pass;
  auto run = [&](std::vector<Payload>& payloads) {
    for (Payload& p : payloads) {
      for (int tick = 0; tick < send_every; ++tick) {
        now += poll;
        if (tick == 0) stream.send_message(std::move(p), wire, now);
        ch.poll(now);
        stream.step(now);
        while (auto msg = stream.pop_delivered()) {
          EXPECT_EQ(msg->bytes.size(), payload_bytes);
          ++pass.delivered;
        }
      }
    }
  };
  std::vector<Payload> warm = make_payloads();
  run(warm);  // warm pools, rings and queues

  std::vector<Payload> measured = make_payloads();
  const std::uint64_t segments_before = stream.stats().segments_sent;
  pass.delivered = 0;
  util::AllocCounter allocs;
  run(measured);
  pass.allocs = allocs.delta();
  pass.segments = stream.stats().segments_sent - segments_before;
  return pass;
}

/// Segmenting, framing, ACKing and reassembly must not touch the heap once
/// warm; each delivered message may allocate its one output buffer.
TEST(PacketPath, WarmMultiSegmentStreamAllocatesOnlyPerDeliveredMessage) {
  constexpr int kMessages = 400;
  const WarmPass pass = measure_warm_stream(/*wire=*/24000, /*payload_bytes=*/2400,
                                            kMessages, Duration::millis(5), 1);
  EXPECT_GE(pass.segments, 24u * (kMessages - 2));
  EXPECT_GE(pass.delivered, static_cast<std::uint64_t>(kMessages - 2));
  EXPECT_LE(pass.allocs, pass.delivered)
      << pass.allocs << " allocations for " << pass.delivered << " messages of "
      << pass.segments << " segments";
}

/// The same gate at the paper's frame shape: 93 segments per message (a
/// 6 MB frame over a 65 000-byte MTU), one message per 37 ms as the 27 fps
/// feed sends them. A frame's 93 DATA buffers and its 93 ACK buffers are in
/// flight together, so the payload pool must cache a whole burst or every
/// frame allocates afresh.
TEST(PacketPath, WarmFrameBurstStreamAllocatesOnlyPerDeliveredMessage) {
  constexpr int kMessages = 100;
  const WarmPass pass = measure_warm_stream(/*wire=*/93000, /*payload_bytes=*/9300,
                                            kMessages, Duration::millis(1), 37);
  EXPECT_GE(pass.segments, 93u * (kMessages - 1));
  EXPECT_GE(pass.delivered, static_cast<std::uint64_t>(kMessages - 1));
  EXPECT_LE(pass.allocs, pass.delivered)
      << pass.allocs << " allocations for " << pass.delivered << " messages of "
      << pass.segments << " segments";
}

// ------------------------------------------------------ introspection surface

TEST(QdiscIntrospection, SummaryAndBacklogBytesAreConsistent) {
  NetemQdisc fifo;
  NetemConfig ncfg;
  ncfg.delay = Duration::millis(10);
  NetemQdisc netem{ncfg, 1};
  NetemQdisc* const qdiscs[] = {&fifo, &netem};
  for (NetemQdisc* q : qdiscs) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Packet p;
      p.id = i;
      p.payload = {1, 2, 3, 4};
      p.wire_size = 100;
      q->enqueue(std::move(p), TimePoint{});
    }
    EXPECT_EQ(q->backlog(), 3u) << q->kind();
    EXPECT_EQ(q->backlog_bytes(), 300u) << q->kind();
    EXPECT_TRUE(q->next_event_at().has_value()) << q->kind();
    const std::string s = q->summary();
    EXPECT_NE(s.find("qdisc " + q->kind()), std::string::npos) << s;
    EXPECT_NE(s.find("backlog 300b 3p"), std::string::npos) << s;
    q->drain(TimePoint::from_seconds(1e6));
    EXPECT_EQ(q->backlog(), 0u) << q->kind();
    EXPECT_EQ(q->backlog_bytes(), 0u) << q->kind();
    EXPECT_FALSE(q->next_event_at().has_value()) << q->kind();
  }
}

TEST(QdiscIntrospection, FifoNextEventIsTheHeadEnqueueTime) {
  NetemQdisc q;
  EXPECT_FALSE(q.next_event_at().has_value());
  Packet p;
  q.enqueue(std::move(p), TimePoint::from_micros(777));
  ASSERT_TRUE(q.next_event_at().has_value());
  EXPECT_EQ(q.next_event_at()->count_micros(), 777);
}

TEST(ChannelNextEvent, TracksTheRootQdisc) {
  Channel ch;
  ch.tc().add(parse_netem("delay 30ms"));
  EXPECT_FALSE(ch.next_event_at().has_value());
  ch.send(LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ASSERT_TRUE(ch.next_event_at().has_value());
  EXPECT_EQ(ch.next_event_at()->count_micros(), 30000);
  ASSERT_TRUE(ch.tc().root().next_event_at().has_value());
  EXPECT_EQ(ch.tc().root().next_event_at()->count_micros(), 30000);
  ch.poll(TimePoint::from_micros(30000));
  EXPECT_FALSE(ch.next_event_at().has_value());
}

}  // namespace
}  // namespace rdsim::net
