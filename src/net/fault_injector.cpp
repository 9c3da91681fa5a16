#include "net/fault_injector.hpp"

#include <sstream>

#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace rdsim::net {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kPacketLoss: return "loss";
  }
  return "unknown";
}

NetemConfig FaultSpec::to_config() const {
  NetemConfig cfg;
  if (kind == FaultKind::kDelay) {
    const auto delay =
        util::Duration::checked_seconds(units::Millis{value}.to_seconds().value());
    if (!delay) throw TcParseError{"delay out of range: " + label()};
    cfg.delay = *delay;
  } else if (kind == FaultKind::kPacketLoss) {
    if (!(value >= 0.0 && value <= 1.0)) throw TcParseError{"loss out of range: " + label()};
    cfg.loss_probability = units::Probability{value};
  }
  return cfg;
}

std::string FaultSpec::label() const {
  std::ostringstream os;
  if (kind == FaultKind::kDelay) {
    os << value << "ms";
  } else {
    os << value * 100.0 << "%";
  }
  return os.str();
}

std::vector<FaultSpec> paper_fault_model() {
  return {
      {FaultKind::kDelay, 5.0},
      {FaultKind::kDelay, 25.0},
      {FaultKind::kDelay, 50.0},
      {FaultKind::kPacketLoss, 0.02},
      {FaultKind::kPacketLoss, 0.05},
  };
}

void FaultInjector::inject(const FaultSpec& fault, util::TimePoint now) {
  if (active_) {
    tc_->change(fault.to_config());
    log_.push_back({now, *active_, /*added=*/false});
  } else {
    tc_->add(fault.to_config());
  }
  active_ = fault;
  log_.push_back({now, fault, /*added=*/true});
  ++injections_;
  RDSIM_OBS_COUNT(obs::metric::kFaultsInjected, 1);
  if (obs::Context* ctx = obs::Context::current()) {
    window_span_ = ctx->span_open(obs::metric::kFaultWindowSpan, now);
    ctx->count(obs::metric::kFaultWindowSpan, 1);
  }
}

void FaultInjector::remove(util::TimePoint now) {
  if (!active_) return;
  tc_->del();
  log_.push_back({now, *active_, /*added=*/false});
  active_.reset();
  if (window_span_ != obs::kNoSpan) {
    if (obs::Context* ctx = obs::Context::current()) {
      ctx->span_close(window_span_, now);
    }
    window_span_ = obs::kNoSpan;
  }
}

}  // namespace rdsim::net
