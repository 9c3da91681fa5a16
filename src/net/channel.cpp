#include "net/channel.hpp"

#include "util/time.hpp"

namespace rdsim::net {

namespace {
// Flow ids: the low bit records the direction, so dispatch knows the endpoint's
// arrived_via and the stats to count.
constexpr std::uint32_t kDownFlow = 0;
constexpr std::uint32_t kUpFlow = 1;

LinkDirection direction_of(const Packet& packet) {
  return packet.flow == kDownFlow ? LinkDirection::kDownlink : LinkDirection::kUplink;
}
}  // namespace

std::uint64_t Channel::send(LinkDirection dir, Packet&& packet, util::TimePoint now) {
  packet.id = next_id_++;
  packet.flow = dir == LinkDirection::kDownlink ? kDownFlow : kUpFlow;
  DirectionStats& s = mutable_stats(dir);
  ++s.packets_sent;
  s.bytes_sent += packet.effective_wire_size();
  // enqueue leaves a dropped packet with the caller: its buffer goes back now.
  if (!tc_.root().enqueue(std::move(packet), now)) recycle(std::move(packet.payload));
  return next_id_ - 1;
}

std::uint64_t Channel::send(LinkDirection dir, Payload payload, std::uint32_t wire_size,
                            util::TimePoint now) {
  Packet p;
  p.payload = std::move(payload);
  p.wire_size = wire_size;
  return send(dir, std::move(p), now);
}

void Channel::register_stream(std::uint16_t stream_id, PacketEndpoint& endpoint) {
  if (stream_id >= endpoints_.size()) endpoints_.resize(std::size_t{stream_id} + 1);
  endpoints_[stream_id] = &endpoint;
}

void Channel::deregister_stream(std::uint16_t stream_id, const PacketEndpoint& endpoint) {
  if (stream_id < endpoints_.size() && endpoints_[stream_id] == &endpoint) {
    endpoints_[stream_id] = nullptr;
  }
}

void Channel::poll(util::TimePoint now) {
  // Release everything due first, then dispatch down before up. Dispatching
  // each packet as the qdisc releases it instead would interleave the
  // directions and reorder the ACKs and retransmissions that endpoints send
  // into the qdisc, and with them the packet ids and netem's random draws.
  NetemQdisc& q = tc_.root();
  if (const auto next = q.next_event_at(); !next || now < *next) return;
  q.dequeue_ready(now, released_);
  for (const Packet& packet : released_) {
    DirectionStats& s = mutable_stats(direction_of(packet));
    ++s.packets_delivered;
    s.total_latency += now - packet.enqueued_at;
  }
  dispatch(LinkDirection::kDownlink, now);
  dispatch(LinkDirection::kUplink, now);
  released_.clear();
}

void Channel::dispatch(LinkDirection dir, util::TimePoint now) {
  // Endpoints only send, and sends go to the qdisc, never to released_, so
  // each packet stays where it is while its endpoint reads it.
  for (Packet& packet : released_) {
    if (direction_of(packet) != dir) continue;
    if (auto view = open_packet_view(packet.payload); !view) {
      ++checksum_failures_;
    } else if (const std::uint16_t id = view->header.stream_id;
               id >= endpoints_.size() || endpoints_[id] == nullptr) {
      ++unroutable_;
    } else {
      endpoints_[id]->on_packet(view->header, view->body, dir, now);
    }
    // The view above reads from the payload; recycle only after delivery.
    // A netem duplicate's buffer is a heap copy, not one the pool handed
    // out, so it is freed with released_ and the pool stays no larger than
    // the link's peak backlog.
    if (!packet.duplicate) recycle(std::move(packet.payload));
  }
}

const DirectionStats& Channel::stats(LinkDirection dir) const {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

DirectionStats& Channel::mutable_stats(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

}  // namespace rdsim::net
