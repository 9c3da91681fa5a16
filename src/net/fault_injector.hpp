// Fault-injection campaign driver.
//
// The paper's §V.F logs every injection as
//   { timestamp, fault type, value, added/deleted }
// and §V.C defines the fault model: {5, 25, 50} ms delay and {2, 5} % packet
// loss, injected at points of interest with a situation-dependent duration.
// The FaultInjector installs, changes and deletes the netem rule on the
// loopback link's TrafficControl on demand and keeps exactly that event log.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/tc.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// The fault classes of the paper's fault model. The faults §V.C screened
/// out (corruption, duplication) stay reachable as netem rules through tc
/// strings.
enum class FaultKind : std::uint8_t {
  kNone,
  kDelay,
  kPacketLoss,
};

std::string to_string(FaultKind kind);

/// One injectable fault: a kind plus magnitude. Delay magnitudes are
/// durations; probabilities are fractions.
struct FaultSpec {
  FaultKind kind{FaultKind::kNone};
  double value{0.0};  ///< ms for delay, fraction for probabilistic faults

  /// The netem rule for this fault, at the exact `value`. Throws
  /// TcParseError for a loss outside [0, 1] or a delay that is not finite
  /// or overflows, as parse_netem does.
  NetemConfig to_config() const;

  /// Human-readable label used in the tables ("50ms", "5%").
  std::string label() const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// The paper's five-point fault model (Table II columns).
std::vector<FaultSpec> paper_fault_model();

/// §V.F fault log record.
struct FaultEvent {
  util::TimePoint timestamp{};
  FaultSpec fault{};
  bool added{false};  ///< true = rule added, false = rule deleted
};

class FaultInjector {
 public:
  /// `tc` is borrowed and must outlive the injector.
  explicit FaultInjector(TrafficControl& tc) : tc_{&tc} {}

  /// Install `fault` now; replaces any active fault (change semantics).
  void inject(const FaultSpec& fault, util::TimePoint now);

  /// Remove the active fault, reverting the link to the default pfifo.
  void remove(util::TimePoint now);

  bool active() const { return active_.has_value(); }
  std::optional<FaultSpec> active_fault() const { return active_; }

  const std::vector<FaultEvent>& log() const { return log_; }
  std::size_t injections() const { return injections_; }

 private:
  TrafficControl* tc_;
  std::optional<FaultSpec> active_;
  std::vector<FaultEvent> log_;
  std::size_t injections_{0};
  std::size_t window_span_{obs::kNoSpan};  ///< open fault-window trace span
};

}  // namespace rdsim::net
