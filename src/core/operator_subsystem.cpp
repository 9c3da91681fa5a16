#include "core/operator_subsystem.hpp"

#include <algorithm>
#include <cmath>

#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "sim/frame.hpp"
#include "util/time.hpp"

namespace rdsim::core {

double QoeStats::score() const {
  // Map freeze fraction and staleness into the 1..5 scale used in §VI.F
  // (reported mean 2.81, range 2..4 for the faulty runs). The mapping is
  // monotone: more frozen time and more lag mean a worse experience.
  const double freeze_penalty = 22.0 * frozen_fraction();
  const double lag_penalty = 8.0 * std::max(0.0, mean_staleness().value() - 0.05);
  const double episodes_penalty =
      0.22 * static_cast<double>(std::min<std::size_t>(freeze_episodes, 20));
  const double worst_penalty = 1.0 * std::min(longest_freeze.value(), 2.5);
  const double raw =
      5.0 - freeze_penalty - lag_penalty - episodes_penalty - worst_penalty;
  return std::clamp(raw, 1.0, 5.0);
}

OperatorSubsystem::OperatorSubsystem(const StationConfig& station, DriverModel driver)
    : station_{station}, driver_{std::move(driver)} {}

void OperatorSubsystem::on_frame(const sim::WorldFrame& frame, util::TimePoint now) {
  if (any_frame_ && frame.frame_id <= displayed_frame_id_) {
    ++frames_superseded_;  // late frame, already superseded on screen
    RDSIM_OBS_COUNT(obs::metric::kOpFramesSuperseded, 1);
    return;
  }
  any_frame_ = true;
  displayed_frame_id_ = frame.frame_id;
  ++frames_displayed_;
  last_display_update_ = now;
  RDSIM_OBS_COUNT(obs::metric::kOpFramesDisplayed, 1);
  RDSIM_OBS_OBSERVE(
      obs::metric::kOpFrameAgeMillis,
      units::Millis::from_duration(now - util::TimePoint::from_micros(frame.sim_time_us))
          .value());

  DisplayedView view;
  view.frame = frame;
  view.displayed_at = now + station_.display_latency.to_duration();
  driver_.observe(view);
}

std::optional<CommandMsg> OperatorSubsystem::poll(util::TimePoint now) {
  // ---- QoE accounting ----
  if (!first_poll_) {
    const units::Seconds dt{(now - last_poll_).to_seconds()};
    if (any_frame_ && dt > units::Seconds{}) {
      qoe_.watch_time += dt;
      const units::Seconds staleness{(now - last_display_update_).to_seconds()};
      const double frame_period = 1.0 / station_.video_fps;
      if (staleness.value() > 1.6 * frame_period) {
        qoe_.frozen_time += dt;
        current_freeze_ += dt;
      } else {
        if (current_freeze_ > units::Seconds{0.3}) {
          ++qoe_.freeze_episodes;
          // Record the finished freeze window (span endpoints reconstructed
          // from the accumulated freeze duration) together with its counter.
          if (obs::Context* ctx = obs::Context::current()) {
            const std::size_t span = ctx->span_open(
                obs::metric::kOpFreezeSpan, now - current_freeze_.to_duration());
            ctx->span_close(span, now);
            ctx->count(obs::metric::kOpFreezeSpan, 1);
          }
        }
        qoe_.longest_freeze = std::max(qoe_.longest_freeze, current_freeze_);
        current_freeze_ = units::Seconds{};
      }
      qoe_.staleness_sum += staleness;
      ++qoe_.staleness_samples;
      RDSIM_OBS_OBSERVE(obs::metric::kOpStalenessMillis,
                        units::Millis::from_duration(now - last_display_update_)
                            .value());
    }
  }
  first_poll_ = false;
  last_poll_ = now;

  // ---- command pacing ----
  if (now < next_command_) return std::nullopt;
  next_command_ = now + util::Duration::seconds(1.0 / station_.command_rate_hz);
  if (!any_frame_) return std::nullopt;  // nothing on screen yet: hands off

  CommandMsg msg;
  msg.sequence = next_seq_++;
  msg.control = driver_.actuate(now);
  // Input-device latency: the wheel position the client reads lags the
  // driver's hand; stamping the send time earlier models the same thing the
  // QoS accounting sees.
  msg.sent_at_us = now.count_micros();
  msg.based_on_frame = displayed_frame_id_;
  return msg;
}

}  // namespace rdsim::core
