// Traffic-control front end.
//
// Fault campaigns in the paper are driven by NETEM command lines such as
// `tc qdisc add dev lo root netem delay 50ms` issued at points of interest.
// We reproduce that surface: rules are parsed from the same textual syntax,
// and a TrafficControl object manages the root qdisc per (virtual) device —
// add / change / del, exactly the verbs the experiment harness logs.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/netem.hpp"
#include "net/tbf.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// Error for malformed rule strings.
class TcParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a duration token: "50ms", "5ms", "1.5s", "200us". Bare numbers are
/// milliseconds, following tc conventions.
util::Duration parse_duration(const std::string& token);

/// Parse a percentage token: "5%", "2.5%", or a bare fraction "0.05".
/// Throws TcParseError when outside [0, 1].
units::Probability parse_percent(const std::string& token);

/// Parse a rate token: "1mbit", "500kbit", "125kbps" (bytes/s), "1gbit".
units::BytesPerSecond parse_rate(const std::string& token);

/// Parse the argument list after the `netem` keyword, e.g.
/// "delay 50ms 10ms 25% distribution normal loss 5% 25% reorder 25% gap 5".
NetemConfig parse_netem_args(const std::vector<std::string>& args);

/// Convenience: parse a full spec like "netem delay 50ms" or
/// "netem loss 5%". The leading "netem" keyword is optional.
NetemConfig parse_netem(const std::string& spec);

/// Per-device root qdisc registry, the analogue of the kernel's qdisc table.
class TrafficControl {
 public:
  explicit TrafficControl(std::uint64_t seed = 1) : seed_{seed} {}

  /// `tc qdisc add dev <device> root netem <args>`; throws if a root qdisc
  /// other than the default pfifo is already installed.
  void add(const std::string& device, const NetemConfig& config);

  /// `tc qdisc change dev <device> root netem <args>`.
  void change(const std::string& device, const NetemConfig& config);

  /// `tc qdisc del dev <device> root`; reverts to the default pfifo.
  /// Packets still queued in the old discipline are dropped, as the kernel
  /// does when it frees a qdisc — reliable transports above will retransmit.
  void del(const std::string& device);

  /// Execute a full command string:
  ///   "qdisc add dev lo root netem delay 50ms"
  /// Returns the device the command touched.
  std::string execute(const std::string& command);

  /// Root qdisc for `device`; a default pfifo is created on first use.
  Qdisc& root(const std::string& device);

  /// The slot holding `device`'s root qdisc, created on first use. It stays
  /// valid for the lifetime of this object: add and del replace only the
  /// qdisc it points to, so a holder skips the per-call device lookup.
  const QdiscPtr& root_slot(const std::string& device) { return entry(device).qdisc; }

  /// Earliest instant the root qdisc on `device` could release a packet;
  /// nullopt while it is empty. Lets callers skip dequeue work entirely
  /// between events instead of polling every tick.
  std::optional<util::TimePoint> next_event_at(const std::string& device) {
    return root(device).next_event_at();
  }

  /// True if a netem rule (not the default pfifo) is installed.
  bool has_netem(const std::string& device) const;

  /// The installed netem config, if any.
  std::optional<NetemConfig> netem_config(const std::string& device) const;

  std::vector<std::string> devices() const;

 private:
  struct Entry {
    QdiscPtr qdisc;
    bool is_netem{false};
  };

  Entry& entry(const std::string& device);

  std::uint64_t seed_;
  std::uint64_t next_stream_{0};
  std::map<std::string, Entry> table_;  ///< node-based: entries never move
};

}  // namespace rdsim::net
