#include "check/frame_hash.hpp"

#include "check/hash.hpp"
#include "net/channel.hpp"
#include "net/packet.hpp"
#include "net/netem.hpp"
#include "sim/frame.hpp"
#include "sim/types.hpp"
#include "util/vec2.hpp"

namespace rdsim::check {

// One fold() per hashed type, opening with a structured binding that names
// every member: a member added to any of these types breaks the build here
// until its fold decides what to do with it.
namespace {

void fold(Fnv1a& h, const util::Vec2& v) {
  const auto& [x, y] = v;
  h.f64(x);
  h.f64(y);
}

void fold(Fnv1a& h, const sim::KinematicState& v) {
  const auto& [position, z, heading, velocity, accel] = v;
  fold(h, position);
  h.f64(z);
  h.f64(heading);
  fold(h, velocity);
  fold(h, accel);
}

void fold(Fnv1a& h, const sim::BoundingBox& v) {
  const auto& [half_length, half_width] = v;
  h.f64(half_length);
  h.f64(half_width);
}

void fold(Fnv1a& h, const sim::VehicleControl& v) {
  const auto& [throttle, steer, brake, reverse, hand_brake] = v;
  h.f64(throttle);
  h.f64(steer);
  h.f64(brake);
  h.boolean(reverse);
  h.boolean(hand_brake);
}

void fold(Fnv1a& h, const sim::ActorSnapshot& v) {
  const auto& [id, kind, state, bbox, control] = v;
  h.u32(id);
  h.u8(static_cast<std::uint8_t>(kind));
  fold(h, state);
  fold(h, bbox);
  fold(h, control);
}

void fold(Fnv1a& h, const sim::WeatherConfig& v) {
  const auto& [night, fog_density] = v;
  h.boolean(night);
  h.f64(fog_density);
}

void fold(Fnv1a& h, const net::QdiscStats& v) {
  const auto& [enqueued, dequeued, dropped_overlimit, dropped_loss, duplicated, corrupted,
               reordered, bytes_sent] = v;
  h.u64(enqueued);
  h.u64(dequeued);
  h.u64(dropped_overlimit);
  h.u64(dropped_loss);
  h.u64(duplicated);
  h.u64(corrupted);
  h.u64(reordered);
  h.u64(bytes_sent);
}

void fold(Fnv1a& h, const net::DirectionStats& v) {
  const auto& [packets_sent, packets_delivered, bytes_sent, total_latency] = v;
  h.u64(packets_sent);
  h.u64(packets_delivered);
  h.u64(bytes_sent);
  h.i64(total_latency.count_micros());
}

}  // namespace

std::uint64_t hash_frame(const sim::WorldFrame& frame) {
  Fnv1a h;
  const auto& [frame_id, sim_time_us, ego, others, weather] = frame;
  h.u32(frame_id);
  h.i64(sim_time_us);
  fold(h, ego);
  h.u64(others.size());
  for (const sim::ActorSnapshot& actor : others) fold(h, actor);
  fold(h, weather);
  return h.digest();
}

std::uint64_t hash_qdisc(const net::NetemQdisc& qdisc) {
  Fnv1a h;
  fold(h, qdisc.stats());
  h.u64(qdisc.backlog());
  if (const auto next = qdisc.next_event_at()) h.i64(next->count_micros());
  return h.digest();
}

std::uint64_t hash_channel(const net::Channel& channel) {
  Fnv1a h;
  for (const net::LinkDirection dir :
       {net::LinkDirection::kDownlink, net::LinkDirection::kUplink}) {
    fold(h, channel.stats(dir));
  }
  h.u64(channel.in_flight());
  return h.digest();
}

}  // namespace rdsim::check
