#include "check/frame_hash.hpp"

#include "check/hash.hpp"
#include "net/channel.hpp"
#include "net/packet.hpp"
#include "net/qdisc.hpp"
#include "sim/frame.hpp"
#include "sim/types.hpp"

namespace rdsim::check {

namespace {

void hash_state(Fnv1a& h, const sim::KinematicState& state) {
  h.f64(state.position.x);
  h.f64(state.position.y);
  h.f64(state.z);
  h.f64(state.heading);
  h.f64(state.velocity.x);
  h.f64(state.velocity.y);
  h.f64(state.accel.x);
  h.f64(state.accel.y);
}

void hash_control(Fnv1a& h, const sim::VehicleControl& control) {
  h.f64(control.throttle);
  h.f64(control.steer);
  h.f64(control.brake);
  h.boolean(control.reverse);
  h.boolean(control.hand_brake);
}

void hash_actor(Fnv1a& h, const sim::ActorSnapshot& actor) {
  h.u32(actor.id);
  h.u8(static_cast<std::uint8_t>(actor.kind));
  hash_state(h, actor.state);
  h.f64(actor.bbox.half_length);
  h.f64(actor.bbox.half_width);
  hash_control(h, actor.control);
}

}  // namespace

std::uint64_t hash_frame(const sim::WorldFrame& frame) {
  Fnv1a h;
  h.u32(frame.frame_id);
  h.i64(frame.sim_time_us);
  hash_actor(h, frame.ego);
  h.u64(frame.others.size());
  for (const sim::ActorSnapshot& actor : frame.others) hash_actor(h, actor);
  h.boolean(frame.weather.night);
  h.f64(frame.weather.fog_density);
  return h.digest();
}

std::uint64_t hash_qdisc(const net::Qdisc& qdisc) {
  Fnv1a h;
  const net::QdiscStats& s = qdisc.stats();
  h.u64(s.enqueued);
  h.u64(s.dequeued);
  h.u64(s.dropped_overlimit);
  h.u64(s.dropped_loss);
  h.u64(s.duplicated);
  h.u64(s.corrupted);
  h.u64(s.reordered);
  h.u64(s.bytes_sent);
  h.u64(qdisc.backlog());
  if (const auto next = qdisc.next_event_at()) h.i64(next->count_micros());
  return h.digest();
}

std::uint64_t hash_channel(const net::Channel& channel) {
  Fnv1a h;
  for (const net::LinkDirection dir :
       {net::LinkDirection::kDownlink, net::LinkDirection::kUplink}) {
    const net::DirectionStats& s = channel.stats(dir);
    h.u64(s.packets_sent);
    h.u64(s.packets_delivered);
    h.u64(s.bytes_sent);
    h.i64(s.total_latency.count_micros());
  }
  h.u64(channel.in_flight());
  return h.digest();
}

}  // namespace rdsim::check
