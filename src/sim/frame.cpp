#include "sim/frame.hpp"

#include "net/packet.hpp"
#include "net/serialization.hpp"

namespace rdsim::sim {

namespace {

/// Bytes encode_actor writes: id u32, kind u8, 13 f64, reverse u8.
constexpr std::size_t kActorWireBytes = 4 + 1 + 13 * 8 + 1;
/// Bytes WorldFrame::encode writes around the actors: frame id u32,
/// sim time i64, night u8, fog f64, others count u32.
constexpr std::size_t kFrameFixedWireBytes = 4 + 8 + 1 + 8 + 4;

void encode_actor(net::ByteWriter& w, const ActorSnapshot& a) {
  w.u32(a.id);
  w.u8(static_cast<std::uint8_t>(a.kind));
  w.f64(a.state.position.x);
  w.f64(a.state.position.y);
  w.f64(a.state.z);
  w.f64(a.state.heading);
  w.f64(a.state.velocity.x);
  w.f64(a.state.velocity.y);
  w.f64(a.state.accel.x);
  w.f64(a.state.accel.y);
  w.f64(a.bbox.half_length);
  w.f64(a.bbox.half_width);
  w.f64(a.control.throttle);
  w.f64(a.control.steer);
  w.f64(a.control.brake);
  w.u8(a.control.reverse ? 1 : 0);
}

ActorSnapshot decode_actor(net::ByteReader& r) {
  ActorSnapshot a;
  a.id = r.u32();
  a.kind = static_cast<ActorKind>(r.u8());
  a.state.position.x = r.f64();
  a.state.position.y = r.f64();
  a.state.z = r.f64();
  a.state.heading = r.f64();
  a.state.velocity.x = r.f64();
  a.state.velocity.y = r.f64();
  a.state.accel.x = r.f64();
  a.state.accel.y = r.f64();
  a.bbox.half_length = r.f64();
  a.bbox.half_width = r.f64();
  a.control.throttle = r.f64();
  a.control.steer = r.f64();
  a.control.brake = r.f64();
  a.control.reverse = r.u8() != 0;
  return a;
}

}  // namespace

net::Payload WorldFrame::encode() const {
  net::ByteWriter w{kFrameFixedWireBytes + (1 + others.size()) * kActorWireBytes};
  w.u32(frame_id);
  w.i64(sim_time_us);
  w.u8(weather.night ? 1 : 0);
  w.f64(weather.fog_density);
  encode_actor(w, ego);
  w.u32(static_cast<std::uint32_t>(others.size()));
  for (const auto& a : others) encode_actor(w, a);
  return w.take();
}

std::optional<WorldFrame> WorldFrame::decode(const net::Payload& bytes) {
  net::ByteReader r{bytes};
  WorldFrame f;
  f.frame_id = r.u32();
  f.sim_time_us = r.i64();
  f.weather.night = r.u8() != 0;
  f.weather.fog_density = r.f64();
  f.ego = decode_actor(r);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > 10000) return std::nullopt;
  f.others.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) f.others.push_back(decode_actor(r));
  if (!r.ok()) return std::nullopt;
  return f;
}

}  // namespace rdsim::sim
