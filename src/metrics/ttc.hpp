// Time-To-Collision (TTC), the paper's longitudinal safety metric (§V.G.1).
//
//   TTC = (X_L - X_F) / (v_F - v_L)
//
// computed against the lead vehicle while following, and only for samples
// where the relative distance is <= 100 m (§VI.C: at the study's low speeds,
// larger distances always produce a large TTC). A TTC in (0, threshold) is a
// violation; the paper uses threshold = 6 s after Vogel [13].
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace rdsim::metrics {

struct TtcConfig {
  units::Meters max_distance{100.0};  ///< ignore leads farther than this
  units::Meters max_lateral{1.9};     ///< lead must be in the ego's lane corridor
  units::MetersPerSecond min_closing_speed{1.0};  ///< below this the pair is not
                                                  ///< meaningfully closing and
                                                  ///< TTC is undefined
  units::Seconds violation_threshold{6.0};
  /// Bumper-to-bumper correction subtracted from the centre distance.
  units::Meters length_correction{4.6};
};

/// Gap from the ego row `e` to `o` along the ego's unit heading (hx, hy), or
/// nullopt when `o` is behind, beyond `max_distance` or outside `max_lateral`.
/// TTC and headway both pick their lead from this corridor.
std::optional<double> corridor_ahead(const TtcConfig& config, const trace::EgoSample& e,
                                     double hx, double hy, const trace::OtherSample& o);

/// A trace's others rows sorted by timestamp, equal timestamps in input order.
class OthersByTime {
 public:
  struct Entry { std::int64_t key{0}; const trace::OtherSample* other{nullptr}; };
  explicit OthersByTime(const std::vector<trace::OtherSample>& others);
  /// The rows logged at `t`, in input order.
  std::span<const Entry> at(double t) const;

 private:
  std::vector<Entry> entries_;
};

/// One TTC sample.
struct TtcSample {
  units::Seconds t{};
  units::Seconds ttc{};
  units::Meters distance{};
  sim::ActorId lead{sim::kInvalidActor};
};

/// Summary statistics over a set of samples (one Table III cell group).
struct TtcStats {
  std::size_t samples{0};
  units::Seconds min{};
  units::Seconds avg{};
  units::Seconds max{};
  std::size_t violations{0};  ///< samples with 0 < TTC < threshold
  bool valid() const { return samples > 0; }
};

/// Computes the TTC series for a run. Lead candidates are other samples of
/// kind vehicle that lie ahead of the ego along its heading within the
/// lateral corridor; the nearest qualifying one is the lead.
class TtcAnalyzer {
 public:
  explicit TtcAnalyzer(TtcConfig config = {}) : config_{config} {}

  std::vector<TtcSample> series(const trace::RunTrace& run) const;

  /// Stats over the full run.
  TtcStats summarize(const std::vector<TtcSample>& series) const;

  /// Stats restricted to [start, stop).
  TtcStats summarize_window(const std::vector<TtcSample>& series, units::Seconds start,
                            units::Seconds stop) const;

  const TtcConfig& config() const { return config_; }

 private:
  TtcConfig config_;
};

}  // namespace rdsim::metrics
