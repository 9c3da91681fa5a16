#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/contracts.hpp"
#include "sim/scenario.hpp"
#include "trace/trace.hpp"

namespace rdsim::trace {
namespace {

TEST(TraceRecorder, SamplesAtConfiguredRate) {
  sim::World world{sim::make_town05_route()};
  const auto ego = world.spawn_on_road(sim::ActorKind::kVehicle, units::Meters{0.0}, 0, {},
                                      units::MetersPerSecond{10.0}, "ego");
  world.designate_ego(ego);
  world.spawn_on_road(sim::ActorKind::kStaticVehicle, units::Meters{100.0}, 1, {},
                      units::MetersPerSecond{0.0}, "parked");

  TraceRecorder rec{"run", "T1", false, /*sample_hz=*/10.0};
  for (int i = 0; i < 100; ++i) {  // 1 s at 100 Hz physics
    world.step(units::Seconds{0.01});
    rec.step(world);
  }
  const RunTrace& t = rec.trace();
  EXPECT_NEAR(static_cast<double>(t.ego.size()), 10.0, 2.0);
  EXPECT_EQ(t.others.size(), t.ego.size());  // one other actor per tick
  EXPECT_EQ(t.others.front().role, "parked");
  EXPECT_GT(t.others.front().distance, 90.0);
}

TEST(TraceRecorder, CapturesSensorEvents) {
  sim::World world{sim::make_town05_route()};
  const auto ego = world.spawn_on_road(sim::ActorKind::kVehicle, units::Meters{0.0}, 0, {},
                                      units::MetersPerSecond{12.0}, "ego");
  world.designate_ego(ego);
  world.spawn_on_road(sim::ActorKind::kStaticVehicle, units::Meters{30.0}, 0, {},
                      units::MetersPerSecond{0.0}, "wall");
  sim::VehicleControl c;
  c.throttle = 0.5;
  world.apply_ego_control(c);

  TraceRecorder rec{"run", "T1", true};
  for (int i = 0; i < 600; ++i) {
    world.step(units::Seconds{0.01});
    rec.step(world);
  }
  EXPECT_FALSE(rec.trace().collisions.empty());
  EXPECT_EQ(rec.trace().collisions.front().other_kind, "static_vehicle");
}

TEST(TraceRecorder, IngestsFaultLog) {
  net::TrafficControl tc;
  net::FaultInjector inj{tc};
  inj.inject({net::FaultKind::kDelay, 50.0}, util::TimePoint::from_seconds(1.0));
  inj.remove(util::TimePoint::from_seconds(2.5));

  TraceRecorder rec{"run", "T1", true};
  rec.ingest_fault_log(inj.log());
  const RunTrace t = rec.take();
  ASSERT_EQ(t.faults.size(), 2u);
  EXPECT_EQ(t.faults[0].fault_type, "delay");
  EXPECT_EQ(t.faults[0].label, "50ms");
  EXPECT_TRUE(t.faults[0].added);
  EXPECT_DOUBLE_EQ(t.faults[1].t, 2.5);
}

RunTrace make_rich_trace() {
  RunTrace t;
  t.run_id = "T5-FI";
  t.subject = "T5";
  t.fault_injected_run = true;
  for (int i = 0; i < 50; ++i) {
    trace::EgoSample e;
    e.t = i * 0.05;
    e.frame = static_cast<std::uint32_t>(i);
    e.x = i * 0.5;
    e.y = -1.0;
    e.vx = 10.0;
    e.ax = 0.1;
    e.throttle = 0.3;
    e.steer = 0.01 * i;
    e.brake = 0.0;
    t.ego.push_back(e);
    trace::OtherSample o;
    o.actor = 2;
    o.role = "lead";
    o.t = e.t;
    o.distance = 25.0;
    o.x = e.x + 25.0;
    o.vx = 10.0;
    o.throttle = 0.5;
    o.steer = -0.25;
    o.brake = 0.75;
    t.others.push_back(o);
  }
  t.collisions.push_back({1.5, 30, 2, "vehicle", 3.5});
  t.lane_invasions.push_back({0.8, 16, "broken", 0, 1});
  t.faults.push_back({0.5, "loss", 0.05, true, "5%"});
  t.faults.push_back({1.9, "loss", 0.05, false, "5%"});
  return t;
}

TEST(RunTrace, FromCsvRejectsEgoRowsOutOfTimeOrder) {
  RunTrace t;
  for (int i = 0; i < 20; ++i) {
    trace::EgoSample e;
    e.t = (19 - i) * 0.05;
    e.frame = static_cast<std::uint32_t>(i);
    e.x = i * 0.5;
    e.vx = 10.0;
    t.ego.push_back(e);
    trace::OtherSample o;
    o.actor = 2;
    o.role = "lead";
    o.t = e.t;
    o.distance = 25.0;
    o.x = e.x + 25.0;
    t.others.push_back(o);
  }
  const std::uint64_t violations = check::Registry::instance().total_violations();
  std::string error;
  try {
    RunTrace::from_csv(t.ego_csv(), t.others_csv(), t.events_csv());
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("ego row 2 "), std::string::npos) << error;
  EXPECT_EQ(check::Registry::instance().total_violations(), violations);

  // Equal times are in order.
  for (trace::EgoSample& e : t.ego) e.t = 1.0;
  EXPECT_EQ(RunTrace::from_csv(t.ego_csv(), t.others_csv(), t.events_csv()).ego.size(), 20u);
}

TEST(RunTrace, CsvRoundTrip) {
  const RunTrace original = make_rich_trace();
  const RunTrace parsed = RunTrace::from_csv(original.ego_csv(), original.others_csv(),
                                             original.events_csv());
  ASSERT_EQ(parsed.ego.size(), original.ego.size());
  EXPECT_EQ(parsed.ego[10].x, original.ego[10].x);
  EXPECT_EQ(parsed.ego[10].steer, original.ego[10].steer);
  ASSERT_EQ(parsed.others.size(), original.others.size());
  EXPECT_EQ(parsed.others[0].role, "lead");
  EXPECT_EQ(parsed.others[0].distance, 25.0);
  EXPECT_EQ(parsed.others[0].throttle, 0.5);
  EXPECT_EQ(parsed.others[0].steer, -0.25);
  EXPECT_EQ(parsed.others[0].brake, 0.75);
  ASSERT_EQ(parsed.collisions.size(), 1u);
  EXPECT_EQ(parsed.collisions[0].other_kind, "vehicle");
  ASSERT_EQ(parsed.lane_invasions.size(), 1u);
  EXPECT_EQ(parsed.lane_invasions[0].marking, "broken");
  ASSERT_EQ(parsed.faults.size(), 2u);
  EXPECT_EQ(parsed.faults[0].label, "5%");
  EXPECT_TRUE(parsed.faults[0].added);
  EXPECT_FALSE(parsed.faults[1].added);
}

TEST(RunTrace, CsvRoundTripKeepsFaultLabels) {
  // Live traces label faults with FaultSpec::label(); the CSV loader must
  // give the same label for the value it reads back.
  net::TrafficControl tc;
  net::FaultInjector inj{tc};
  inj.inject({net::FaultKind::kDelay, 12.3456789}, util::TimePoint::from_seconds(1.0));
  inj.inject({net::FaultKind::kPacketLoss, 0.05}, util::TimePoint::from_seconds(2.0));
  inj.remove(util::TimePoint::from_seconds(3.0));
  TraceRecorder rec{"run", "T1", true};
  rec.ingest_fault_log(inj.log());
  const RunTrace live = rec.take();
  const RunTrace parsed =
      RunTrace::from_csv(live.ego_csv(), live.others_csv(), live.events_csv());
  ASSERT_EQ(parsed.faults.size(), live.faults.size());
  ASSERT_EQ(live.faults.size(), 4u);
  EXPECT_EQ(live.faults[0].label, "12.3457ms");
  for (std::size_t i = 0; i < live.faults.size(); ++i) {
    EXPECT_EQ(parsed.faults[i].label, live.faults[i].label) << i;
  }
}

// Every double reads back bit for bit, however many digits it needs, so a
// fault loaded from CSV carries the label it had live.
TEST(RunTrace, CsvRoundTripIsExact) {
  net::TrafficControl tc;
  net::FaultInjector inj{tc};
  inj.inject({net::FaultKind::kPacketLoss, 0.0123456789}, util::TimePoint::from_seconds(1.0));
  inj.remove(util::TimePoint::from_seconds(2.0));
  TraceRecorder rec{"run", "T1", true};
  rec.ingest_fault_log(inj.log());
  RunTrace live = rec.take();
  EgoSample e;
  e.t = 0.5;
  e.x = 1e-7;
  live.ego.push_back(e);
  OtherSample o;
  o.actor = 2;
  o.role = "lead";
  o.t = 0.5;
  o.distance = 123456.789012345;
  live.others.push_back(o);

  const RunTrace parsed =
      RunTrace::from_csv(live.ego_csv(), live.others_csv(), live.events_csv());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(parsed.faults.size(), 2u);
  EXPECT_EQ(bits(parsed.faults[0].value), bits(0.0123456789));
  EXPECT_EQ(parsed.faults[0].label, live.faults[0].label);
  ASSERT_EQ(parsed.ego.size(), 1u);
  EXPECT_EQ(bits(parsed.ego[0].x), bits(1e-7));
  ASSERT_EQ(parsed.others.size(), 1u);
  EXPECT_EQ(bits(parsed.others[0].distance), bits(123456.789012345));
}

/// The message from_csv throws for the given tables, or "" when it parses.
std::string from_csv_error(const std::string& ego, const std::string& others,
                           const std::string& events) {
  try {
    RunTrace::from_csv(ego, others, events);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RunTrace, FromCsvRejectsShortRows) {
  const RunTrace t = make_rich_trace();
  const std::string ego = t.ego_csv();
  const std::string others = t.others_csv();
  const std::string events = t.events_csv();
  ASSERT_EQ(from_csv_error(ego, others, events), "");

  // A row shorter than its header names its table, row and first missing cell.
  EXPECT_EQ(from_csv_error(ego, others, "event,t,frame,a,b,c\ncollision,1.0\n"),
            "events CSV row 1 has no 'frame' cell");
  EXPECT_EQ(from_csv_error(ego, "actor,role,t,distance,x,y,z,vx,vy,vz,throttle,steer,brake\n"
                                "2,lead,0,25,0,0,0,0,0,0,0,0,0\n2,lead\n",
                           events),
            "others CSV row 2 has no 't' cell");
  EXPECT_EQ(from_csv_error("t,frame,x,y,z,vx,vy,vz,ax,ay,az,throttle,steer,brake\n0\n",
                           others, events),
            "ego CSV row 1 has no 'frame' cell");

  // A column that write_csv writes may not be missing, even with no rows.
  EXPECT_EQ(from_csv_error(ego, others, "t,frame,a,b,c\n"),
            "events CSV has no 'event' column");
  EXPECT_EQ(from_csv_error(ego, "actor,role,t,distance,x,y,z,vx,vy,vz\n", events),
            "others CSV has no 'throttle' column");
}

TEST(RunTrace, FromCsvRejectsNonNumericCells) {
  const RunTrace t = make_rich_trace();
  const std::string others = t.others_csv();
  const std::string events = t.events_csv();
  const std::string ego_header = "t,frame,x,y,z,vx,vy,vz,ax,ay,az,throttle,steer,brake\n";
  const auto zeros = [](int n) {
    std::string cells;
    for (int i = 0; i < n; ++i) cells += ",0";
    return cells + "\n";
  };

  // format_number writes nan and inf, so double columns read them back.
  const RunTrace parsed =
      RunTrace::from_csv(ego_header + "0,0,nan,inf,-inf" + zeros(9), others, events);
  ASSERT_EQ(parsed.ego.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.ego[0].x));
  EXPECT_EQ(parsed.ego[0].y, std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed.ego[0].z, -std::numeric_limits<double>::infinity());

  // A cell that is not entirely a number names its table, row and column.
  EXPECT_EQ(from_csv_error(ego_header + "0,0" + zeros(12) + "abc,1" + zeros(12), others,
                           events),
            "ego CSV row 2 column 't' holds 'abc', which is not a number");
  EXPECT_EQ(from_csv_error(ego_header + "0,0,1.5abc" + zeros(11), others, events),
            "ego CSV row 1 column 'x' holds '1.5abc', which is not a number");
  EXPECT_EQ(from_csv_error(ego_header + "0,0," + zeros(11), others, events),
            "ego CSV row 1 column 'x' holds '', which is not a number");

  // Integer columns take whole numbers in the range of their field only.
  const std::string ego = t.ego_csv();
  EXPECT_EQ(from_csv_error(ego_header + "0,-1" + zeros(12), others, events),
            "ego CSV row 1 column 'frame' holds '-1', which is not an integer in range");
  EXPECT_EQ(from_csv_error(ego,
                           "actor,role,t,distance,x,y,z,vx,vy,vz,throttle,steer,brake\n"
                           "1e30,lead,0,25,0,0,0,0,0,0,0,0,0\n",
                           events),
            "others CSV row 1 column 'actor' holds '1e30', which is not an integer in "
            "range");
  EXPECT_EQ(from_csv_error(ego, others,
                           "event,t,frame,a,b,c\nlane_invasion,1,2,broken,1.5,2\n"),
            "events CSV row 1 column 'b' holds '1.5', which is not an integer in range");
  EXPECT_EQ(from_csv_error(ego, others,
                           "event,t,frame,a,b,c\ncollision,1,4294967296,3,vehicle,2\n"),
            "events CSV row 1 column 'frame' holds '4294967296', which is not an integer "
            "in range");
}

TEST(RunTrace, SteeringSeriesExtraction) {
  const RunTrace t = make_rich_trace();
  const auto steer = t.steering_series();
  const auto time = t.time_series();
  ASSERT_EQ(steer.size(), t.ego.size());
  ASSERT_EQ(time.size(), t.ego.size());
  EXPECT_DOUBLE_EQ(steer[20], 0.2);
  EXPECT_NEAR(t.duration_s(), 49 * 0.05, 1e-9);
}

}  // namespace
}  // namespace rdsim::trace
