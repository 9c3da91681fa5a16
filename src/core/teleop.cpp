#include "core/teleop.hpp"

#include <stdexcept>

#include "check/frame_hash.hpp"
#include "mitigate/governor.hpp"
#include "mitigate/link_quality.hpp"
#include "mitigate/mitigation.hpp"
#include "mitigate/mrm.hpp"
#include "net/datagram.hpp"
#include "net/packet.hpp"
#include "net/reliable_stream.hpp"
#include "net/tc.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "sim/frame.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rdsim::core {

namespace {

/// Trace sampling rate.
constexpr double kLogHz = 20.0;
/// Declared wire size of one driving command.
constexpr std::uint32_t kCommandWireBytes = 200;
/// Drop a video frame at the sender while more than this many segments are
/// still queued untransmitted: CARLA's sensor stream slows down rather than
/// queueing without bound when the transport falls behind.
constexpr std::size_t kSenderBacklogLimit = 96;

DriverParams with_station_latencies(DriverParams d, const StationConfig& station) {
  // Input-device latency adds dead time between the driver's hand and the
  // client sampling it; fold it into the perception-action dead time (the
  // display latency is modelled explicitly in OperatorSubsystem::on_frame).
  d.reaction_time_s += station.input_latency.to_seconds().value();
  return d;
}

/// Rejects a configuration that cannot run before any member is built from it.
RunConfig validated(RunConfig config) {
  if (auto error = config.rds.validate()) throw std::invalid_argument{*error};
  return config;
}

std::unique_ptr<net::MessageTransport> make_transport(
    bool datagram, net::Channel& channel, std::uint16_t stream_id,
    net::LinkDirection direction, const net::StreamConfig& stream) {
  if (datagram) {
    return std::make_unique<net::DatagramSocket>(channel, stream_id, direction);
  }
  return std::make_unique<net::ReliableStream>(channel, stream_id, direction, stream);
}

}  // namespace

TeleopSession::TeleopSession(RunConfig config, sim::Scenario scenario)
    : config_{validated(std::move(config))},
      fault_windows_{resolve_fault_plan(config_.plan, scenario)},
      channel_{config_.seed},
      injector_{channel_.tc()},
      vehicle_{config_.rds, std::move(scenario), config_.safety, config_.seed},
      recorder_{config_.run_id, config_.subject_id, config_.fault_injected, kLogHz} {
  const auto& rds = config_.rds;
  video_ = make_transport(rds.datagram_video, channel_, kVideoStreamId,
                          net::LinkDirection::kDownlink, rds.transport);
  commands_ = make_transport(rds.datagram_commands, channel_, kCommandStreamId,
                             net::LinkDirection::kUplink, rds.transport);

  operator_ = std::make_unique<OperatorSubsystem>(
      rds.station,
      DriverModel{with_station_latencies(config_.driver, rds.station),
                  &vehicle_.runtime().scenario(), &vehicle_.world().road(),
                  util::Random{config_.seed, 0x647269766572ULL}});

  if (config_.mitigation.enabled) {
    estimator_ = std::make_unique<mitigate::LinkQualityEstimator>(
        config_.mitigation.estimator);
    governor_ = std::make_unique<mitigate::DegradationGovernor>(
        config_.mitigation.governor);
    vehicle_.enable_mitigation(config_.mitigation.watchdog);
  }

  comms_dt_ = util::Duration::seconds(1.0 / rds.comms_hz);
  physics_dt_ = util::Duration::seconds(1.0 / rds.physics_hz);
  next_physics_ = clock_.now();
}

/// The plan's POI windows in first-match order: assignment by assignment,
/// each one's windows in scenario order. Rejects an assignment whose fault
/// has no netem rule, or that names a POI the scenario lacks, since it could
/// never fire.
std::vector<TeleopSession::FaultWindow> TeleopSession::resolve_fault_plan(
    const std::vector<FaultAssignment>& plan, const sim::Scenario& scenario) {
  std::vector<FaultWindow> windows;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    try {
      (void)plan[i].fault.to_config();
    } catch (const net::TcParseError& e) {
      throw std::invalid_argument{"fault plan for POI '" + plan[i].poi + "': " + e.what()};
    }
    const std::size_t before = windows.size();
    for (const sim::PoiWindow& poi : scenario.pois) {
      if (poi.name == plan[i].poi) windows.push_back({poi.from, poi.to, i});
    }
    if (windows.size() == before) {
      throw std::invalid_argument{"fault plan names POI '" + plan[i].poi +
                                  "', which scenario '" + scenario.name + "' lacks"};
    }
  }
  return windows;
}

void TeleopSession::update_fault_plan() {
  const units::Meters s = vehicle_.runtime().ego_position();

  // Find the planned assignment whose POI contains the ego position.
  std::optional<std::size_t> due;
  for (const FaultWindow& w : fault_windows_) {
    if (s >= w.from && s < w.to) {
      due = w.assignment;
      break;
    }
  }

  if (due != active_assignment_) {
    if (active_assignment_ && injector_.active()) injector_.remove(clock_.now());
    if (due) injector_.inject(config_.plan[*due].fault, clock_.now());
    active_assignment_ = due;
  }
}

void TeleopSession::pump_video(util::TimePoint now) {
  if (auto frame = vehicle_.maybe_encode_frame(now)) {
    if (video_->send_backlog() > kSenderBacklogLimit) {
      ++frames_skipped_sender_;  // transport is behind: drop, don't queue
    } else {
      video_->send_message(std::move(*frame), config_.rds.video.frame_wire_bytes, now);
    }
  }
  video_->step(now);
  while (auto msg = video_->pop_delivered()) {
    if (auto decoded = sim::WorldFrame::decode(msg->bytes)) {
      if (governor_) perceived_speed_ = units::MetersPerSecond{decoded->ego.state.speed()};
      operator_->on_frame(std::move(*decoded), now);
    }
  }
}

void TeleopSession::update_mitigation(util::TimePoint now) {
  // Estimation reads only observables that already exist: the transports'
  // own stats and the display staleness the driver model experiences. A
  // datagram transport's stats are all zero, so with datagrams both ways the
  // governor acts on staleness alone.
  const bool refreshed =
      estimator_->update(video_->stats(), commands_->stats(),
                         operator_->driver().display_staleness(now), now);
  if (refreshed) governor_->update(estimator_->quality(), now);
}

void TeleopSession::pump_commands(util::TimePoint now) {
  if (auto cmd = operator_->poll(now)) {
    // The governor sits between the driver's wheel and the uplink: in any
    // state but NOMINAL it shapes the command under the state's limits.
    if (governor_) cmd->control = governor_->shape(cmd->control, perceived_speed_, now);
    commands_->send_message(cmd->encode(), kCommandWireBytes, now);
  }
  commands_->step(now);
  while (auto msg = commands_->pop_delivered()) {
    if (auto decoded = CommandMsg::decode(msg->bytes)) {
      vehicle_.on_command(*decoded, now);
    }
  }
}

bool TeleopSession::step() {
  if (finished_) return false;
  // One lap per phase; the step timer is their exact sum.
  obs::Stopwatch stopwatch;
  const util::TimePoint now = clock_.now();

  // Physics sub-steps due at this tick.
  while (next_physics_ <= now) {
    vehicle_.step_physics(units::Seconds::from_duration(physics_dt_));
    recorder_.step(vehicle_.world());
    if (config_.replay != nullptr) {
      check::Fnv1a net;
      net.u64(check::hash_channel(channel_));
      net.u64(check::hash_qdisc(channel_.tc().root()));
      config_.replay->record_tick(vehicle_.world().frame_counter(),
                                  check::hash_frame(vehicle_.world().snapshot()),
                                  net.digest());
    }
    next_physics_ += physics_dt_;
  }
  stopwatch.lap(obs::metric::kPhasePhysics);

  update_fault_plan();
  stopwatch.lap(obs::metric::kPhaseFaults);
  pump_video(now);
  stopwatch.lap(obs::metric::kPhaseVideo);
  channel_.poll(now);
  stopwatch.lap(obs::metric::kPhaseRouter);
  if (estimator_) {
    update_mitigation(now);
    stopwatch.lap(obs::metric::kPhaseMitigate);
  }
  pump_commands(now);
  stopwatch.lap(obs::metric::kPhaseCommands);
  stopwatch.total(obs::metric::kPhaseStep);

  clock_.advance(comms_dt_);

  if (vehicle_.runtime().complete() || vehicle_.runtime().timed_out()) {
    if (injector_.active()) injector_.remove(clock_.now());
    finished_ = true;
    return false;
  }
  return true;
}

RunResult TeleopSession::run() {
  while (step()) {
  }
  recorder_.ingest_fault_log(injector_.log());

  RunResult result;
  result.completed = vehicle_.runtime().complete();
  result.timed_out = vehicle_.runtime().timed_out();
  result.duration = units::Seconds{clock_.now().to_seconds()};
  result.qoe = operator_->qoe();
  result.video_stats = video_->stats();
  result.command_stats = commands_->stats();
  result.mean_downlink_latency =
      channel_.stats(net::LinkDirection::kDownlink).mean_latency();
  result.mean_uplink_latency =
      channel_.stats(net::LinkDirection::kUplink).mean_latency();
  result.frames_encoded = vehicle_.frames_encoded();
  result.frames_displayed = operator_->frames_displayed();
  result.frames_skipped_sender = frames_skipped_sender_;
  result.safety_activations = vehicle_.safety_activations();
  result.faults_injected = injector_.injections();

  if (governor_) {
    governor_->finalize(clock_.now());
    mitigate::MitigationSummary& m = result.mitigation;
    m.enabled = true;
    m.dwell_nominal = governor_->dwell(mitigate::LinkState::kNominal);
    m.dwell_degraded = governor_->dwell(mitigate::LinkState::kDegraded);
    m.dwell_impaired = governor_->dwell(mitigate::LinkState::kImpaired);
    m.dwell_link_loss = governor_->dwell(mitigate::LinkState::kLinkLoss);
    m.transitions = governor_->transitions();
    m.interventions = governor_->interventions();
    const mitigate::MrmController* mrm = vehicle_.mrm();
    m.watchdog_firings = mrm->watchdog_firings();
    m.mrm_activations = mrm->activations();
    m.mrm_time = mrm->engaged_time();
    m.mrm_standstill = mrm->reached_standstill();
    m.final_rtt = estimator_->quality().rtt;
    m.final_loss = estimator_->quality().loss;
  }

  result.trace = recorder_.take();
  return result;
}

}  // namespace rdsim::core
