// Packet-path microbenchmark and zero-allocation gate.
//
// Exercises the redesigned qdisc/channel API end to end and emits
// BENCH_packet_path.json with three families of numbers:
//
//   qdisc    raw NetemQdisc enqueue->tail/heap->dequeue throughput under
//            jitter (packets/s)
//   steady   reliable stream over a disturbed channel: segment throughput,
//            payload bandwidth, and heap allocations per tick / per segment
//            and fresh payload-pool acquisitions once the pool is warm
//   idle     cost of polling an idle channel, which the event-driven
//            next_event_at() early-out makes O(1) — gated at ZERO heap
//            allocations per idle tick (non-zero exit otherwise)
//
// Four correctness gates make this a regression bench rather than a
// stopwatch (each exits 1 when it fails):
//   - the delivered-byte digest of the steady scenario must be identical on
//     a fresh channel and on one whose payload pool was pre-warmed with junk
//     buffers (pooling may change where bytes live, never what they are);
//   - the digest must be reproducible across two runs;
//   - at the default seed the digest must equal the pinned value for the
//     chosen length, so a change in packet-path behaviour fails the bench;
//   - over the warm half of the steady scenario the payload pool must serve
//     every acquisition from its list: a buffer that leaves the pool for
//     good (a dropped packet's, say) shows up as a fresh acquisition.
//
//   usage: bench_packet_path [--quick] [--out FILE] [seed]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/reliable_stream.hpp"
#include "util/alloc_hook.hpp"
#include "util/csv.hpp"

using namespace rdsim;

namespace {

constexpr std::uint64_t kDefaultSeed = 7;
/// Steady-scenario digests at kDefaultSeed, for --quick and the full length.
constexpr std::uint64_t kPinnedQuickDigest = 0xf67e5394ce205518ull;
constexpr std::uint64_t kPinnedFullDigest = 0xf38f6e0ee15921cdull;

double wall_seconds(const std::chrono::steady_clock::time_point t0,
                    const std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct ScenarioResult {
  std::uint64_t digest{0};
  std::uint64_t segments{0};
  std::uint64_t payload_bytes{0};
  std::uint64_t ticks{0};
  double wall_s{0.0};
  std::uint64_t allocs_measured{0};      ///< over the second (warm) half
  std::uint64_t pool_fresh_measured{0};  ///< fresh pool acquisitions, warm half
  std::uint64_t ticks_measured{0};
  std::uint64_t segments_measured{0};
};

/// Reliable video-style stream over `netem delay 20ms 5ms loss 2% reorder 10%`:
/// one 30 kB frame every 33 ms, polled at 5 ms ticks, delivered bytes digested.
ScenarioResult run_scenario(std::uint64_t seed, std::uint64_t ticks, bool prewarm_pool) {
  net::Channel ch{seed};

  if (prewarm_pool) {
    // Populate the free list with odd-capacity junk so a pooling bug that
    // leaks buffer contents or capacities into behaviour would change the
    // digest.
    for (std::size_t i = 0; i < 32; ++i) {
      net::Payload junk(64u << (i % 5), static_cast<std::uint8_t>(i));
      ch.recycle(std::move(junk));
    }
  }

  ch.tc().execute("qdisc add dev lo root netem delay 20ms 5ms loss 2% reorder 10%");
  net::ReliableStream stream{ch, 1, net::LinkDirection::kDownlink};

  check::Fnv1a digest;
  ScenarioResult r;
  r.ticks = ticks;
  constexpr std::int64_t kTickUs = 5000;
  constexpr std::uint64_t kFrameEveryTicks = 7;  // ~35 ms cadence
  constexpr std::size_t kFrameBytes = 30000;

  net::Payload frame(kFrameBytes);
  std::uint32_t fill = static_cast<std::uint32_t>(seed) | 1u;
  util::AllocCounter allocs;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    if (tick == ticks / 2) {
      // Second half only: pools and transport windows are warm.
      allocs.reset();
      r.segments_measured = r.segments;
      r.pool_fresh_measured = ch.pool().stats().fresh;
    }
    const util::TimePoint now = util::TimePoint::from_micros(
        static_cast<std::int64_t>(tick) * kTickUs);
    if (tick % kFrameEveryTicks == 0) {
      for (auto& b : frame) {
        fill = fill * 1664525u + 1013904223u;  // LCG, deterministic filler
        b = static_cast<std::uint8_t>(fill >> 24);
      }
      stream.send_message(frame, kFrameBytes, now);
    }
    ch.poll(now);
    stream.step(now);
    while (auto msg = stream.pop_delivered()) {
      digest.u32(msg->message_id);
      digest.u64(msg->bytes.size());
      digest.update(msg->bytes.data(), msg->bytes.size());
      r.payload_bytes += msg->bytes.size();
    }
    r.segments = stream.stats().segments_sent + stream.stats().retransmits_rto +
                 stream.stats().retransmits_fast;
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = wall_seconds(t0, t1);
  r.allocs_measured = allocs.delta();
  r.ticks_measured = ticks - ticks / 2;
  r.segments_measured = r.segments - r.segments_measured;
  r.pool_fresh_measured = ch.pool().stats().fresh - r.pool_fresh_measured;
  digest.u64(stream.stats().messages_delivered);
  digest.u64(ch.stats(net::LinkDirection::kDownlink).bytes_sent);
  r.digest = digest.digest();
  return r;
}

/// Raw qdisc hot loop: batches through netem's tail list and timer heap;
/// under jitter a packet that would release before the tail's last one
/// goes to the heap.
double qdisc_packets_per_second(std::uint64_t packets) {
  net::NetemConfig cfg;
  cfg.delay = util::Duration::millis(10);
  cfg.jitter = util::Duration::millis(3);
  net::NetemQdisc q{cfg, 42};
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t released = 0;
  std::int64_t t_us = 0;
  std::vector<net::Packet> out;
  net::Payload kept(1200);  ///< last released payload, reused by the next enqueue
  for (std::uint64_t i = 0; i < packets; ++i) {
    net::Packet p;
    p.id = i;
    p.payload = std::move(kept);
    p.wire_size = 1500;
    const util::TimePoint now = util::TimePoint::from_micros(t_us);
    q.enqueue(std::move(p), now);
    t_us += 100;
    if (kept.empty()) kept.resize(1200);
    if (const auto next = q.next_event_at(); next && *next <= now) {
      q.dequeue_ready(now, out);
      released += out.size();
      kept = std::move(out.back().payload);
      out.clear();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double s = wall_seconds(t0, t1);
  return s > 0.0 ? static_cast<double>(packets + released) / s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t ticks = 200000;      // 1000 s virtual
  std::uint64_t idle_ticks = 2000000;
  std::uint64_t qdisc_packets = 2000000;
  std::uint64_t pinned_digest = kPinnedFullDigest;
  std::string out_path = "BENCH_packet_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      pinned_digest = kPinnedQuickDigest;
      ticks = 20000;
      idle_ticks = 200000;
      qdisc_packets = 200000;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (const auto parsed = util::parse_number<std::uint64_t>(argv[i])) {
      seed = *parsed;
    } else {
      std::fprintf(stderr,
                   "bench_packet_path: bad seed '%s'\n"
                   "usage: bench_packet_path [--quick] [--out FILE] [seed]\n",
                   argv[i]);
      return 2;
    }
  }

  std::printf("packet path bench: seed %llu, %llu ticks\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ticks));

  // Raw qdisc throughput.
  const double qdisc_pps = qdisc_packets_per_second(qdisc_packets);
  std::printf("  qdisc       : %.2fM packets/s through the netem tail and heap\n",
              qdisc_pps / 1e6);

  // Steady-state stream scenario, three runs: fresh, repeat, pre-warmed pool.
  const ScenarioResult fresh = run_scenario(seed, ticks, /*prewarm_pool=*/false);
  const ScenarioResult repeat = run_scenario(seed, ticks, /*prewarm_pool=*/false);
  const ScenarioResult warmed = run_scenario(seed, ticks, /*prewarm_pool=*/true);
  const bool reproducible = fresh.digest == repeat.digest;
  const bool pool_transparent = fresh.digest == warmed.digest;
  const double seg_per_s =
      fresh.wall_s > 0.0 ? static_cast<double>(fresh.segments) / fresh.wall_s : 0.0;
  const double mb_per_s = fresh.wall_s > 0.0
                              ? static_cast<double>(fresh.payload_bytes) / 1e6 / fresh.wall_s
                              : 0.0;
  const double allocs_per_tick =
      fresh.ticks_measured > 0
          ? static_cast<double>(fresh.allocs_measured) /
                static_cast<double>(fresh.ticks_measured)
          : 0.0;
  const double allocs_per_segment =
      fresh.segments_measured > 0
          ? static_cast<double>(fresh.allocs_measured) /
                static_cast<double>(fresh.segments_measured)
          : 0.0;
  std::printf("  steady      : %.0f segments/s, %.1f MB/s delivered, "
              "%.3f allocs/tick (warm), %.3f allocs/segment, "
              "%llu fresh pool buffers (warm)\n",
              seg_per_s, mb_per_s, allocs_per_tick, allocs_per_segment,
              static_cast<unsigned long long>(fresh.pool_fresh_measured));
  std::printf("  digest      : %016llx  repeat %s, pre-warmed pool %s\n",
              static_cast<unsigned long long>(fresh.digest),
              reproducible ? "identical" : "MISMATCH",
              pool_transparent ? "identical" : "MISMATCH");

  // Idle path: nothing in flight, nothing may allocate.
  std::uint64_t idle_allocs = 0;
  double idle_ns = 0.0;
  {
    net::Channel ch{seed};
    ch.poll(util::TimePoint{});  // settle lazy init outside the window
    util::AllocCounter allocs;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < idle_ticks; ++i) {
      ch.poll(util::TimePoint::from_micros(static_cast<std::int64_t>(i) * 5000));
    }
    const auto t1 = std::chrono::steady_clock::now();
    idle_allocs = allocs.delta();
    idle_ns = wall_seconds(t0, t1) * 1e9 / static_cast<double>(idle_ticks);
  }
  std::printf("  idle        : %.1f ns/tick, %llu allocations over %llu ticks\n",
              idle_ns, static_cast<unsigned long long>(idle_allocs),
              static_cast<unsigned long long>(idle_ticks));

  char hash_buf[32];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(fresh.digest));
  std::ofstream json{out_path, std::ios::trunc};
  json << "{\n"
       << "  \"bench\": \"packet_path\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"ticks\": " << ticks << ",\n"
       << "  \"qdisc_packets_per_s\": " << qdisc_pps << ",\n"
       << "  \"steady\": {\n"
       << "    \"segments_per_s\": " << seg_per_s << ",\n"
       << "    \"delivered_mb_per_s\": " << mb_per_s << ",\n"
       << "    \"allocs_per_tick_warm\": " << allocs_per_tick << ",\n"
       << "    \"allocs_per_segment_warm\": " << allocs_per_segment << ",\n"
       << "    \"pool_fresh_warm\": " << fresh.pool_fresh_measured << ",\n"
       << "    \"digest\": \"" << hash_buf << "\",\n"
       << "    \"repeat_identical\": " << (reproducible ? "true" : "false") << ",\n"
       << "    \"pool_transparent\": " << (pool_transparent ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"idle\": {\n"
       << "    \"ns_per_tick\": " << idle_ns << ",\n"
       << "    \"ticks\": " << idle_ticks << ",\n"
       << "    \"allocations\": " << idle_allocs << "\n"
       << "  }\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!reproducible || !pool_transparent) {
    std::fprintf(stderr, "FAIL: delivered-stream digest diverged\n");
    return 1;
  }
  if (seed == kDefaultSeed && fresh.digest != pinned_digest) {
    std::fprintf(stderr, "FAIL: delivered-stream digest %s, pinned %016llx\n", hash_buf,
                 static_cast<unsigned long long>(pinned_digest));
    return 1;
  }
  if (fresh.pool_fresh_measured != 0) {
    std::fprintf(stderr, "FAIL: warm payload pool allocated %llu fresh buffers\n",
                 static_cast<unsigned long long>(fresh.pool_fresh_measured));
    return 1;
  }
  if (idle_allocs != 0) {
    std::fprintf(stderr, "FAIL: idle tick allocated (%llu allocations)\n",
                 static_cast<unsigned long long>(idle_allocs));
    return 1;
  }
  return 0;
}
