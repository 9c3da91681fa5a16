#include "net/tc.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/time.hpp"

namespace rdsim::net {

namespace {

/// The one device tc commands may name.
constexpr std::string_view kDevice = "lo";

/// Split on whitespace.
std::vector<std::string> tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is{s};
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Leading numeric part of a token; returns consumed length.
double leading_number(const std::string& token, std::size_t& consumed) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(begin, end, value);
  if (res.ec != std::errc{} || res.ptr == begin) {
    throw TcParseError{"expected a number in token '" + token + "'"};
  }
  consumed = static_cast<std::size_t>(res.ptr - begin);
  return value;
}

/// `token`, all of it, as a T in T's range; `keyword` names the argument
/// in the error.
template <typename T>
T parse_count(const std::string& keyword, const std::string& token) {
  if (const auto value = util::parse_number<T>(token)) return *value;
  throw TcParseError{"netem " + keyword + " expects an unsigned integer, got '" + token + "'"};
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool looks_numeric(const std::string& token) {
  return !token.empty() &&
         (std::isdigit(static_cast<unsigned char>(token[0])) || token[0] == '.' ||
          token[0] == '-');
}

}  // namespace

util::Duration parse_duration(const std::string& token) {
  std::size_t consumed = 0;
  const double value = leading_number(token, consumed);
  if (value < 0.0) throw TcParseError{"negative duration in '" + token + "'"};
  const std::string unit = lower(token.substr(consumed));
  std::optional<util::Duration> d;
  if (unit.empty() || unit == "ms" || unit == "msec" || unit == "msecs") {
    d = util::Duration::checked_seconds(units::Millis{value}.to_seconds().value());
  } else if (unit == "us" || unit == "usec" || unit == "usecs") {
    d = util::Duration::checked_micros(value);
  } else if (unit == "s" || unit == "sec" || unit == "secs") {
    d = util::Duration::checked_seconds(value);
  } else {
    throw TcParseError{"unknown time unit in '" + token + "'"};
  }
  if (!d) throw TcParseError{"duration out of range in '" + token + "'"};
  return *d;
}

units::Probability parse_percent(const std::string& token) {
  std::size_t consumed = 0;
  const double value = leading_number(token, consumed);
  const std::string suffix = token.substr(consumed);
  double p = 0.0;
  if (suffix == "%") {
    p = value / 100.0;
  } else if (suffix.empty()) {
    p = value;  // bare fraction
  } else {
    throw TcParseError{"expected percentage, got '" + token + "'"};
  }
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN included
    throw TcParseError{"percentage out of range in '" + token + "'"};
  }
  return units::Probability{p};
}

units::BytesPerSecond parse_rate(const std::string& token) {
  std::size_t consumed = 0;
  const double value = leading_number(token, consumed);
  const std::string unit = lower(token.substr(consumed));
  const units::BytesPerSecond rate = [&] {
    if (unit == "bit") return units::BytesPerSecond::from_bit(value);
    if (unit == "kbit") return units::BytesPerSecond::from_kbit(value);
    if (unit == "mbit") return units::BytesPerSecond::from_mbit(value);
    if (unit == "gbit") return units::BytesPerSecond::from_gbit(value);
    if (unit == "bps" || unit.empty()) return units::BytesPerSecond::from_bps(value);
    if (unit == "kbps") return units::BytesPerSecond::from_kbps(value);
    if (unit == "mbps") return units::BytesPerSecond::from_mbps(value);
    throw TcParseError{"unknown rate unit in '" + token + "'"};
  }();
  if (!(rate.value() >= 0.0 && std::isfinite(rate.value()))) {  // NaN included
    throw TcParseError{"rate must be finite and non-negative in '" + token + "'"};
  }
  return rate;
}

NetemConfig parse_netem_args(const std::vector<std::string>& args) {
  NetemConfig cfg;
  std::size_t i = 0;
  auto next = [&]() -> const std::string& {
    if (i >= args.size()) throw TcParseError{"unexpected end of netem arguments"};
    return args[i++];
  };
  auto peek_numeric = [&]() { return i < args.size() && looks_numeric(args[i]); };

  while (i < args.size()) {
    const std::string key = lower(next());
    if (key == "delay") {
      cfg.delay = parse_duration(next());
      if (peek_numeric()) cfg.jitter = parse_duration(next());
      if (peek_numeric()) cfg.delay_correlation = parse_percent(next());
    } else if (key == "distribution") {
      const std::string d = lower(next());
      if (d == "uniform") {
        cfg.distribution = DelayDistribution::kUniform;
      } else if (d == "normal") {
        cfg.distribution = DelayDistribution::kNormal;
      } else if (d == "pareto") {
        cfg.distribution = DelayDistribution::kPareto;
      } else if (d == "paretonormal") {
        cfg.distribution = DelayDistribution::kParetoNormal;
      } else {
        throw TcParseError{"unknown distribution '" + d + "'"};
      }
    } else if (key == "loss") {
      if (i < args.size() && lower(args[i]) == "gemodel") {
        ++i;
        GilbertElliott ge;
        ge.p = parse_percent(next());
        if (peek_numeric()) ge.r = parse_percent(next());
        if (peek_numeric()) ge.h = parse_percent(next()).complement();  // tc: 1-h
        if (peek_numeric()) ge.k = parse_percent(next());
        cfg.gemodel = ge;
      } else {
        cfg.loss_probability = parse_percent(next());
        if (peek_numeric()) cfg.loss_correlation = parse_percent(next());
      }
    } else if (key == "duplicate") {
      cfg.duplicate_probability = parse_percent(next());
      if (peek_numeric()) cfg.duplicate_correlation = parse_percent(next());
    } else if (key == "corrupt") {
      cfg.corrupt_probability = parse_percent(next());
      if (peek_numeric()) cfg.corrupt_correlation = parse_percent(next());
    } else if (key == "reorder") {
      cfg.reorder_probability = parse_percent(next());
      if (peek_numeric()) cfg.reorder_correlation = parse_percent(next());
    } else if (key == "gap") {
      cfg.reorder_gap = std::max(parse_count<std::uint32_t>(key, next()), std::uint32_t{1});
    } else if (key == "rate") {
      cfg.rate = parse_rate(next());
    } else if (key == "limit") {
      cfg.limit = parse_count<std::size_t>(key, next());
    } else {
      throw TcParseError{"unknown netem keyword '" + key + "'"};
    }
  }
  return cfg;
}

NetemConfig parse_netem(const std::string& spec) {
  auto tokens = tokenize(spec);
  if (!tokens.empty() && lower(tokens.front()) == "netem") {
    tokens.erase(tokens.begin());
  }
  return parse_netem_args(tokens);
}

void TrafficControl::add(const NetemConfig& config) {
  if (has_netem()) {
    throw TcParseError{"RTNETLINK answers: File exists (netem already installed on lo)"};
  }
  root_ = NetemQdisc{config, seed_ + next_stream_++};
}

void TrafficControl::change(const NetemConfig& config) {
  if (!has_netem()) throw TcParseError{"cannot change: no netem qdisc installed on lo"};
  root_.change(config);
}

void TrafficControl::del() {
  if (!has_netem()) {
    throw TcParseError{"RTNETLINK answers: No such file or directory (no netem on lo)"};
  }
  root_ = NetemQdisc{};
}

void TrafficControl::execute(const std::string& command) {
  auto tokens = tokenize(command);
  // Accept an optional leading "tc".
  std::size_t i = 0;
  if (i < tokens.size() && lower(tokens[i]) == "tc") ++i;
  auto expect = [&](const std::string& word) {
    if (i >= tokens.size() || lower(tokens[i]) != word) {
      throw TcParseError{"expected '" + word + "' in tc command"};
    }
    ++i;
  };
  expect("qdisc");
  if (i >= tokens.size()) throw TcParseError{"missing verb in tc command"};
  const std::string verb = lower(tokens[i++]);
  expect("dev");
  if (i >= tokens.size()) throw TcParseError{"missing device in tc command"};
  if (tokens[i] != kDevice) throw TcParseError{"Cannot find device \"" + tokens[i] + "\""};
  ++i;
  expect("root");

  if (verb == "del") {
    del();
    return;
  }
  expect("netem");
  const std::vector<std::string> rest{tokens.begin() + static_cast<std::ptrdiff_t>(i),
                                      tokens.end()};
  const NetemConfig cfg = parse_netem_args(rest);
  if (verb == "add") {
    add(cfg);
  } else if (verb == "change") {
    change(cfg);
  } else {
    throw TcParseError{"unknown tc verb '" + verb + "'"};
  }
}

std::optional<NetemConfig> TrafficControl::netem_config() const {
  if (!has_netem()) return std::nullopt;
  return root_.config();
}

}  // namespace rdsim::net
