// Traffic-control front end.
//
// Fault campaigns in the paper are driven by NETEM command lines such as
// `tc qdisc add dev lo root netem delay 50ms` issued at points of interest.
// We reproduce that surface: rules are parsed from the same textual syntax,
// and a TrafficControl object holds the root qdisc of the one emulated
// device, the loopback interface `lo` that CARLA server and client share
// (§V.D), and applies add / change / del, exactly the verbs the experiment
// harness logs. The link's Channel owns its TrafficControl (Channel::tc()),
// and a standalone one serves tc-only tests and tools.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "net/netem.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// Error for malformed rule strings.
class TcParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a duration token: "50ms", "5ms", "1.5s", "200us". Bare numbers are
/// milliseconds, following tc conventions. Throws TcParseError when the
/// value is negative, not finite, or its microsecond count does not fit an
/// int64_t.
util::Duration parse_duration(const std::string& token);

/// Parse a percentage token: "5%", "2.5%", or a bare fraction "0.05".
/// Throws TcParseError when outside [0, 1].
units::Probability parse_percent(const std::string& token);

/// Parse a rate token: "1mbit", "500kbit", "125kbps" (bytes/s), "1gbit".
/// Throws TcParseError when the rate is negative or not finite.
units::BytesPerSecond parse_rate(const std::string& token);

/// Parse the argument list after the `netem` keyword, e.g.
/// "delay 50ms 10ms 25% distribution normal loss 5% 25% reorder 25% gap 5".
NetemConfig parse_netem_args(const std::vector<std::string>& args);

/// Convenience: parse a full spec like "netem delay 50ms" or
/// "netem loss 5%". The leading "netem" keyword is optional.
NetemConfig parse_netem(const std::string& spec);

/// The root qdisc of the emulated loopback link, the analogue of the
/// kernel's qdisc slot on `lo`.
class TrafficControl {
 public:
  explicit TrafficControl(std::uint64_t seed = 1) : seed_{seed} {}

  /// `tc qdisc add dev lo root netem <args>`; throws if a root qdisc other
  /// than the default pfifo is already installed.
  void add(const NetemConfig& config);

  /// `tc qdisc change dev lo root netem <args>`.
  void change(const NetemConfig& config);

  /// `tc qdisc del dev lo root`; reverts to the default pfifo.
  /// Packets still queued in the old discipline are dropped, as the kernel
  /// does when it frees a qdisc — reliable transports above will retransmit.
  void del();

  /// Execute a full command string:
  ///   "qdisc add dev lo root netem delay 50ms"
  /// A command naming any device other than `lo` throws TcParseError.
  void execute(const std::string& command);

  /// The root qdisc; the default pfifo (netem with no rule) until a rule is
  /// added. add and del replace its contents, counters included.
  NetemQdisc& root() { return root_; }
  const NetemQdisc& root() const { return root_; }

  /// True if a netem rule (not the default pfifo) is installed.
  bool has_netem() const { return root_.has_rule(); }

  /// The installed netem config, if any.
  std::optional<NetemConfig> netem_config() const;

 private:
  std::uint64_t seed_;
  std::uint64_t next_stream_{0};
  NetemQdisc root_;
};

}  // namespace rdsim::net
