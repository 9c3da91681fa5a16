#include "core/protocol.hpp"

#include "net/packet.hpp"
#include "net/serialization.hpp"

namespace rdsim::core {

net::Payload CommandMsg::encode() const {
  // sequence u32, three f64 controls, two u8 flags, sent_at i64, frame u32.
  net::ByteWriter w{4 + 3 * 8 + 1 + 1 + 8 + 4};
  w.u32(sequence);
  w.f64(control.throttle);
  w.f64(control.steer);
  w.f64(control.brake);
  w.u8(control.reverse ? 1 : 0);
  w.u8(control.hand_brake ? 1 : 0);
  w.i64(sent_at_us);
  w.u32(based_on_frame);
  return w.take();
}

std::optional<CommandMsg> CommandMsg::decode(const net::Payload& bytes) {
  net::ByteReader r{bytes};
  CommandMsg m;
  m.sequence = r.u32();
  m.control.throttle = r.f64();
  m.control.steer = r.f64();
  m.control.brake = r.f64();
  m.control.reverse = r.u8() != 0;
  m.control.hand_brake = r.u8() != 0;
  m.sent_at_us = r.i64();
  m.based_on_frame = r.u32();
  if (!r.ok()) return std::nullopt;
  return m;
}

}  // namespace rdsim::core
