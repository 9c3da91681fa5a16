// Fingerprints of concrete simulator state, for the replay detector.
//
// Lives apart from check/replay.hpp so the dependency arrow stays one-way:
// sim/net link the contract layer, and only this translation unit (linked by
// the session layer) knows how to hash their types.
#pragma once

#include <cstdint>

#include "net/channel.hpp"
#include "net/netem.hpp"
#include "sim/frame.hpp"

namespace rdsim::check {

/// Bit-exact fingerprint of one world snapshot (ego + all other actors +
/// weather + timestamps).
std::uint64_t hash_frame(const sim::WorldFrame& frame);

/// Fingerprint of a qdisc's externally visible state (counters + backlog +
/// next release time).
std::uint64_t hash_qdisc(const net::NetemQdisc& qdisc);

/// Fingerprint of a channel's delivery state (per-direction stats, packets in
/// flight). Its release buffer is empty between polls, so it is not folded.
std::uint64_t hash_channel(const net::Channel& channel);

}  // namespace rdsim::check
