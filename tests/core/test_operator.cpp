#include <gtest/gtest.h>

#include "core/operator_subsystem.hpp"
#include "util/alloc_hook.hpp"

namespace rdsim::core {
namespace {

using util::Duration;
using util::TimePoint;

// DriverModel borrows the scenario and road, so they must outlive every
// operator built here; function-local statics stay reachable (LSan-clean).
const sim::Scenario& shared_scenario() {
  static const sim::Scenario scenario = [] {
    sim::Scenario s;
    s.instructions.push_back({units::Meters{0.0}, units::Meters{5000.0}, 0,
                              units::MetersPerSecond{10.0}, units::Meters{0.0}});
    return s;
  }();
  return scenario;
}

const sim::RoadNetwork& shared_road() {
  static const sim::RoadNetwork road{sim::make_town05_route()};
  return road;
}

OperatorSubsystem make_operator(StationConfig station = {}) {
  return OperatorSubsystem{
      station, DriverModel{DriverParams{}, &shared_scenario(), &shared_road(),
                           util::Random{3, 3}}};
}

sim::WorldFrame frame_at(std::uint32_t id, TimePoint t) {
  sim::WorldFrame f;
  f.frame_id = id;
  f.sim_time_us = t.count_micros();
  f.ego.state.velocity = {10.0, 0.0};
  return f;
}

TEST(Operator, NoCommandsBeforeFirstFrame) {
  auto op = make_operator();
  EXPECT_FALSE(op.poll(TimePoint::from_seconds(0.1)).has_value());
  EXPECT_FALSE(op.poll(TimePoint::from_seconds(0.2)).has_value());
}

TEST(Operator, CommandsPacedAtConfiguredRate) {
  StationConfig station;
  station.command_rate_hz = 10.0;
  auto op = make_operator(station);
  op.on_frame(frame_at(1, TimePoint{}), TimePoint{});
  int commands = 0;
  for (int ms = 0; ms < 1000; ms += 5) {
    if (op.poll(TimePoint::from_micros(ms * 1000))) ++commands;
  }
  EXPECT_NEAR(commands, 10, 2);
}

TEST(Operator, CommandSequenceMonotonic) {
  auto op = make_operator();
  op.on_frame(frame_at(1, TimePoint{}), TimePoint{});
  std::uint32_t last = 0;
  for (int ms = 0; ms < 500; ms += 5) {
    if (auto cmd = op.poll(TimePoint::from_micros(ms * 1000))) {
      EXPECT_GT(cmd->sequence, last);
      last = cmd->sequence;
      EXPECT_EQ(cmd->based_on_frame, 1u);
    }
  }
  EXPECT_GT(last, 0u);
}

TEST(Operator, SupersededFramesDropped) {
  auto op = make_operator();
  op.on_frame(frame_at(5, TimePoint{}), TimePoint{});
  op.on_frame(frame_at(3, TimePoint{}), TimePoint{});  // late, already superseded
  EXPECT_EQ(op.displayed_frame_id(), 5u);
  EXPECT_EQ(op.frames_displayed(), 1u);
  EXPECT_EQ(op.frames_superseded(), 1u);
}

TEST(Operator, QoeTracksFreezes) {
  auto op = make_operator();
  // Smooth playback for 2 s at ~30 fps.
  std::uint32_t id = 0;
  for (int ms = 0; ms < 2000; ms += 33) {
    const auto t = TimePoint::from_micros(ms * 1000);
    op.on_frame(frame_at(++id, t), t);
    op.poll(t + Duration::millis(1));
  }
  const double frozen_smooth = op.qoe().frozen_time.value();
  // Then a 1.5 s freeze while polling continues.
  for (int ms = 2000; ms < 3500; ms += 33) {
    op.poll(TimePoint::from_micros(ms * 1000));
  }
  EXPECT_GT(op.qoe().frozen_time.value(), frozen_smooth + 1.0);
  EXPECT_GT(op.qoe().frozen_fraction(), 0.3);
}

TEST(Operator, QoeScoreDegradesWithFreezes) {
  auto smooth = make_operator();
  auto frozen = make_operator();
  std::uint32_t id = 0;
  for (int ms = 0; ms < 5000; ms += 33) {
    const auto t = TimePoint::from_micros(ms * 1000);
    smooth.on_frame(frame_at(++id, t), t);
    smooth.poll(t);
    // The frozen operator only gets every 12th frame (~0.4 s stalls).
    if (ms % 400 < 33) frozen.on_frame(frame_at(id, t), t);
    frozen.poll(t);
  }
  EXPECT_GT(smooth.qoe().score(), 4.5);
  EXPECT_LT(frozen.qoe().score(), smooth.qoe().score() - 1.0);
}

TEST(OperatorSubsystem, DisplayingAFrameCopiesNothing) {
  // Frames carrying five other actors, so a copy would allocate.
  const auto busy_frame = [](std::uint32_t id, TimePoint t) {
    sim::WorldFrame f = frame_at(id, t);
    f.others.resize(5);
    return f;
  };
  auto op = make_operator();
  std::uint32_t id = 0;
  TimePoint t{};
  for (int ms = 0; ms < 2000; ms += 5) {  // warm: the perception queue at depth
    t = TimePoint::from_micros(ms * 1000);
    if (ms % 35 == 0) op.on_frame(busy_frame(++id, t), t);
    op.poll(t);
  }
  sim::WorldFrame next = busy_frame(++id, t);
  util::AllocCounter allocs;
  op.on_frame(std::move(next), t);
  EXPECT_EQ(allocs.delta(), 0u);
  EXPECT_EQ(op.displayed_frame_id(), id);
}

TEST(QoeStats, ScoreBounds) {
  QoeStats q;
  q.watch_time = units::Seconds{100.0};
  q.frozen_time = units::Seconds{95.0};
  q.freeze_episodes = 200;
  q.staleness_sum = units::Seconds{500.0};
  q.staleness_samples = 100;
  EXPECT_GE(q.score(), 1.0);
  QoeStats perfect;
  perfect.watch_time = units::Seconds{100.0};
  perfect.staleness_samples = 100;
  perfect.staleness_sum = units::Seconds{2.0};
  EXPECT_LE(perfect.score(), 5.0);
  EXPECT_GT(perfect.score(), 4.5);
}

}  // namespace
}  // namespace rdsim::core
