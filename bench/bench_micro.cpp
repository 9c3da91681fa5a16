// google-benchmark micro benchmarks: costs of the building blocks — netem
// qdisc operations, reliable-stream throughput, simulator stepping, metric
// computation, and a full teleoperation tick.
#include <benchmark/benchmark.h>

#include <optional>

#include "core/campaign_hash.hpp"
#include "core/teleop.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"

using namespace rdsim;

namespace {

void BM_NetemEnqueueDequeue(benchmark::State& state) {
  net::NetemConfig cfg;
  cfg.delay = util::Duration::millis(5);
  cfg.jitter = util::Duration::millis(1);
  cfg.loss_probability = units::Probability{0.02};
  net::NetemQdisc q{cfg, 1};
  std::uint64_t id = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    net::Packet p;
    p.id = ++id;
    p.wire_size = 1000;
    q.enqueue(std::move(p), util::TimePoint::from_micros(t));
    t += 100;
    benchmark::DoNotOptimize(q.drain(util::TimePoint::from_micros(t - 5000)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetemEnqueueDequeue);

void BM_TcRuleParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::parse_netem("delay 50ms 10ms 25% loss 2% reorder 25% gap 5 rate 10mbit"));
  }
}
BENCHMARK(BM_TcRuleParse);

void BM_ReliableStreamRoundTrip(benchmark::State& state) {
  net::Channel channel;
  net::StreamConfig cfg;
  cfg.mtu = 65000;
  net::ReliableStream stream{channel, 1, net::LinkDirection::kDownlink, cfg};
  std::int64_t t = 0;
  const net::Payload msg(256, 0x5A);
  for (auto _ : state) {
    t += 1000;
    stream.send_message(msg, 65000, util::TimePoint::from_micros(t));
    channel.poll(util::TimePoint::from_micros(t));
    stream.step(util::TimePoint::from_micros(t));
    while (stream.pop_delivered()) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReliableStreamRoundTrip);

void BM_FrameBurstRoundTrip(benchmark::State& state) {
  // The shape of the slowest teleop tick: one video frame declared at 6 MB
  // crosses a no-rule link as 93 DATA segments at mtu 65 000, and each
  // segment's ACK comes back, 186 packets through send, qdisc and dispatch.
  net::Channel channel;
  net::ReliableStream stream{channel, 1, net::LinkDirection::kDownlink};
  constexpr std::uint32_t kFrameWireBytes = 6'000'000;
  const std::uint64_t segments = stream.config().segments_for(kFrameWireBytes);
  const net::Payload frame(1024, 0x5A);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1000;
    const auto now = util::TimePoint::from_micros(t);
    stream.send_message(frame, kFrameWireBytes, now);
    stream.step(now);    // every segment onto the link
    channel.poll(now);   // segments delivered, one ACK each onto the link
    channel.poll(now);   // ACKs delivered
    benchmark::DoNotOptimize(stream.pop_delivered());
  }
  if (segments != 93 || stream.unacked_segments() != 0) {
    state.SkipWithError("the frame did not cross as 93 acknowledged segments");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2 * segments));
}
BENCHMARK(BM_FrameBurstRoundTrip);

void BM_WorldPhysicsStep(benchmark::State& state) {
  // The throttled ego drives off the route, so the world is rebuilt every
  // 60 sim-s: otherwise the per-step time would depend on how far the
  // iteration count lets it drive.
  constexpr int kStepsPerWorld = 6000;
  std::optional<sim::World> world;
  std::optional<sim::ScenarioRuntime> runtime;
  const auto rebuild = [&] {
    runtime.reset();
    world.emplace(sim::make_town05_route());
    runtime.emplace(sim::make_test_route_scenario(), *world);
    sim::VehicleControl c;
    c.throttle = 0.4;
    world->apply_ego_control(c);
  };
  rebuild();
  int steps = 0;
  for (auto _ : state) {
    if (steps == kStepsPerWorld) {
      state.PauseTiming();
      rebuild();
      steps = 0;
      state.ResumeTiming();
    }
    world->step(units::Seconds{0.01});
    runtime->step();
    ++steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorldPhysicsStep);

void BM_RoadProjection(benchmark::State& state) {
  const auto road = sim::make_town05_route();
  double s = 0.0;
  for (auto _ : state) {
    const auto pose = road.sample_offset(s, 1.0);
    benchmark::DoNotOptimize(road.project(pose.position, s));
    s += 2.0;
    if (s > road.length()) s = 0.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RoadProjection);

void BM_FrameEncodeDecode(benchmark::State& state) {
  sim::World world{sim::make_town05_route()};
  sim::ScenarioRuntime runtime{sim::make_test_route_scenario(), world};
  world.step(units::Seconds{0.01});
  const auto frame = world.snapshot();
  for (auto _ : state) {
    const auto bytes = frame.encode();
    benchmark::DoNotOptimize(sim::WorldFrame::decode(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_TeleopTick(benchmark::State& state) {
  const auto make_session = [] {
    core::RunConfig rc;
    rc.run_id = "bm";
    rc.subject_id = "bm";
    rc.driver = core::DriverParams{};
    rc.seed = 5;
    return std::make_unique<core::TeleopSession>(std::move(rc),
                                                 sim::make_test_route_scenario());
  };
  auto session = make_session();
  for (auto _ : state) {
    if (!session->step()) {
      // A session holds a finite number of ticks; start a fresh run off the
      // clock when the benchmark outlasts it.
      state.PauseTiming();
      session = make_session();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TeleopTick);

const trace::RunTrace& bench_trace() {
  static const trace::RunTrace trace = [] {
    core::RunConfig rc;
    rc.run_id = "bm";
    rc.subject_id = "bm";
    rc.driver = core::DriverParams{};
    rc.seed = 5;
    core::TeleopSession session{std::move(rc), sim::make_following_scenario()};
    return session.run().trace;
  }();
  return trace;
}

void BM_TtcAnalysis(benchmark::State& state) {
  metrics::TtcAnalyzer ttc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ttc.summarize(ttc.series(bench_trace())));
  }
}
BENCHMARK(BM_TtcAnalysis);

void BM_SrrAnalysis(benchmark::State& state) {
  metrics::SrrAnalyzer srr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(srr.analyze(bench_trace()));
  }
}
BENCHMARK(BM_SrrAnalysis);

void BM_TraceCsvRoundTrip(benchmark::State& state) {
  const auto& trace = bench_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::RunTrace::from_csv(
        trace.ego_csv(), trace.others_csv(), trace.events_csv()));
  }
}
BENCHMARK(BM_TraceCsvRoundTrip);

void BM_HashRun(benchmark::State& state) {
  core::RunResult run;
  run.trace = bench_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::hash_run(run));
  }
}
BENCHMARK(BM_HashRun);

}  // namespace

BENCHMARK_MAIN();
