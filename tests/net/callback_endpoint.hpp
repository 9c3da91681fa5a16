// A Channel endpoint that forwards each delivered packet to a callable, so a
// test can register a lambda where a transport would register itself.
#pragma once

#include <utility>

#include "net/channel.hpp"

namespace rdsim::net {

/// `F` is called as f(header, body, arrived_via, now), `body` a ByteReader&.
/// Unlike a transport it does not deregister itself: declare it after the
/// Channel it is registered on, or deregister it before it dies.
template <typename F>
class CallbackEndpoint final : public PacketEndpoint {
 public:
  explicit CallbackEndpoint(F f) : f_{std::move(f)} {}

  void on_packet(const ProtocolHeader& header, ByteReader& body,
                 LinkDirection arrived_via, util::TimePoint now) override {
    f_(header, body, arrived_via, now);
  }

 private:
  F f_;
};

}  // namespace rdsim::net
