#include "net/channel.hpp"

#include "util/time.hpp"

namespace rdsim::net {

namespace {
// Flow ids: the low bit records the direction, so delivery knows the inbox.
constexpr std::uint32_t kDownFlow = 0;
constexpr std::uint32_t kUpFlow = 1;
}  // namespace

/// Routes packets released by the qdisc straight into the channel inboxes,
/// so dequeueing never stages through an intermediate vector.
class Channel::DeliverySink final : public PacketSink {
 public:
  DeliverySink(Channel& channel, util::TimePoint now) : channel_{channel}, now_{now} {}

  void accept(Packet&& packet) override { channel_.deliver(std::move(packet), now_); }

 private:
  Channel& channel_;
  util::TimePoint now_;
};

Channel::Channel(TrafficControl& tc) : root_{&tc.root_slot()} {}

std::uint64_t Channel::send(LinkDirection dir, Packet&& packet, util::TimePoint now) {
  packet.id = next_id_++;
  packet.flow = dir == LinkDirection::kDownlink ? kDownFlow : kUpFlow;
  DirectionStats& s = mutable_stats(dir);
  ++s.packets_sent;
  s.bytes_sent += packet.effective_wire_size();
  (*root_)->enqueue(std::move(packet), now);
  return next_id_ - 1;
}

std::uint64_t Channel::send(LinkDirection dir, Payload payload, std::uint32_t wire_size,
                            util::TimePoint now) {
  Packet p;
  p.payload = std::move(payload);
  p.wire_size = wire_size;
  return send(dir, std::move(p), now);
}

void Channel::register_stream(std::uint16_t stream_id, Handler handler) {
  if (stream_id >= handlers_.size()) handlers_.resize(std::size_t{stream_id} + 1);
  handlers_[stream_id] = std::move(handler);
}

void Channel::poll(util::TimePoint now) {
  // Release everything due first, then drain down before up. Dispatching
  // from inside dequeue_ready() instead would interleave the directions and
  // reorder the ACKs and retransmissions that handlers send into the qdisc,
  // and with them the packet ids and netem's random draws.
  Qdisc& q = **root_;
  if (const auto next = q.next_event_at(); next && *next <= now) {
    DeliverySink sink{*this, now};
    q.dequeue_ready(now, sink);
  }
  drain(LinkDirection::kDownlink, now);
  drain(LinkDirection::kUplink, now);
}

void Channel::deliver(Packet&& packet, util::TimePoint now) {
  const LinkDirection dir =
      packet.flow == kDownFlow ? LinkDirection::kDownlink : LinkDirection::kUplink;
  DirectionStats& s = mutable_stats(dir);
  ++s.packets_delivered;
  s.total_latency += now - packet.enqueued_at;
  inbox(dir).push_back() = std::move(packet);
}

void Channel::drain(LinkDirection dir, util::TimePoint now) {
  // Handlers only send, and sends go to the qdisc, never to an inbox, so the
  // packet stays in its slot until it is popped.
  util::SeqQueue<Packet>& box = inbox(dir);
  while (!box.empty()) {
    Packet& packet = box.front();
    if (const auto view = open_packet_view(packet.payload); !view) {
      ++checksum_failures_;
    } else if (const std::uint16_t id = view->header.stream_id;
               id >= handlers_.size() || !handlers_[id]) {
      ++unroutable_;
    } else {
      handlers_[id](view->header, view->body, dir, now);
    }
    // The view above reads from the payload; recycle only after handling.
    recycle(std::move(packet.payload));
    box.pop_front();
  }
}

const DirectionStats& Channel::stats(LinkDirection dir) const {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

util::SeqQueue<Packet>& Channel::inbox(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? to_operator_ : to_vehicle_;
}

DirectionStats& Channel::mutable_stats(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

}  // namespace rdsim::net
