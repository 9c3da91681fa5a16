// Collision analysis and the paper's "other metrics" (§VI.E): lane
// invasions, headway time, Time Exposed TTC (TET), and speed/acceleration
// statistics.
#pragma once

#include <map>
#include <string>

#include "metrics/ttc.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace rdsim::metrics {

/// Attribution of a collision to the fault that was active when it happened
/// ("only two types of faults led to crashes: 50 ms delay and 5 % loss").
struct AttributedCollision {
  trace::CollisionRecord record{};
  bool fault_active{false};
  std::string fault_type;   ///< empty if no fault active
  double fault_value{0.0};
  std::string fault_label;
};

struct CollisionAnalysis {
  std::size_t total{0};
  std::vector<AttributedCollision> collisions;

  bool any() const { return total > 0; }
  /// Count per fault label ("50ms", "5%", ...); key "none" = no fault active.
  std::map<std::string, std::size_t> by_fault_label() const;
};

CollisionAnalysis analyze_collisions(const trace::RunTrace& run);

/// Headway time: bumper gap / ego speed, same lead-selection rules as TTC.
struct HeadwayStats {
  std::size_t samples{0};
  units::Seconds min{};
  units::Seconds avg{};
  /// Fraction of samples below the European two-second rule (§II.B / [14]).
  double below_2s_fraction{0.0};
  bool valid() const { return samples > 0; }
};
HeadwayStats analyze_headway(const trace::RunTrace& run, const TtcConfig& config = {});

/// The headway behind analyze_headway and headway_distribution: one value per
/// ego row at >= 0.5 m/s with a vehicle in the lead corridor, in ego order.
std::vector<double> headway_series(const trace::RunTrace& run,
                                   const TtcConfig& config = {});

/// Time Exposed TTC: time spent with 0 < TTC < threshold.
units::Seconds time_exposed_ttc(const std::vector<TtcSample>& series,
                                units::Seconds threshold,
                                units::Seconds sample_interval);

/// Speed / acceleration / pedal statistics over a run or window.
struct DrivingStats {
  util::RunningStats speed;
  util::RunningStats accel_long;
  util::RunningStats throttle;
  util::RunningStats brake;
  std::size_t brake_applications{0};  ///< rising edges of the brake pedal
  std::size_t lane_invasions{0};
  std::size_t solid_line_invasions{0};
};
DrivingStats analyze_driving(const trace::RunTrace& run,
                             units::Seconds start = units::Seconds{-1e300},
                             units::Seconds stop = units::Seconds{1e300});

/// Duration the ego needed to traverse [dist_from, dist_to] along its own
/// path — used for the Fig. 4 observation that manoeuvres take longer under
/// faults. Returns nullopt if the run never covers the interval. Positions
/// are measured as cumulative travelled distance.
std::optional<units::Seconds> traversal_time(const trace::RunTrace& run,
                                             units::Meters dist_from,
                                             units::Meters dist_to);

/// Total time the ego spent at or below `threshold` speed, excluding the
/// initial standstill before it first moves off. Quantifies what an MRM
/// costs: an unmitigated run rolls through an outage, a mitigated run parks
/// until the link returns. Sampled at the trace's log rate.
units::Seconds standstill_time(const trace::RunTrace& run,
                               units::MetersPerSecond threshold =
                                   units::MetersPerSecond{0.3});

}  // namespace rdsim::metrics
