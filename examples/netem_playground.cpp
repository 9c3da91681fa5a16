// NETEM playground: the network substrate by itself.
//
// Issues the same tc command lines the paper's rig used against the
// emulated loopback device, pushes a reliable stream across it, and prints
// what each disturbance does to delivery latency and retransmissions.
//
//   usage: netem_playground ["netem args"]
//   e.g.:  netem_playground "delay 50ms 10ms loss 2%"
#include <cstdio>
#include <string>

#include "net/reliable_stream.hpp"
#include "util/stats.hpp"

using namespace rdsim;
using util::Duration;
using util::TimePoint;

namespace {

void run_with_rule(const std::string& rule) {
  net::Channel channel;
  net::StreamConfig cfg;
  cfg.mtu = 65000;
  net::ReliableStream stream{channel, 1, net::LinkDirection::kDownlink, cfg};

  if (!rule.empty()) {
    const std::string command = "tc qdisc add dev lo root netem " + rule;
    std::printf("$ %s\n", command.c_str());
    channel.tc().execute(command);
  } else {
    std::printf("$ (no rule: default pfifo)\n");
  }

  // Send 30 fps of 256 KB "frames" for five seconds.
  TimePoint now;
  util::RunningStats latency_ms;
  int delivered = 0;
  std::int64_t next_frame_us = 0;
  while (now.to_seconds() < 5.0) {
    if (now.count_micros() >= next_frame_us) {
      stream.send_message(net::Payload(128, 0x42), 256000, now);
      next_frame_us += 33333;
    }
    channel.poll(now);
    stream.step(now);
    while (auto msg = stream.pop_delivered()) {
      latency_ms.add(msg->latency().to_millis());
      ++delivered;
    }
    now += Duration::millis(1);
  }

  const auto& s = stream.stats();
  std::printf("  delivered %d frames | latency mean %.1f ms (min %.1f, max %.1f)\n",
              delivered, latency_ms.mean(), latency_ms.min(), latency_ms.max());
  std::printf("  retransmits: %llu rto + %llu fast | srtt %.1f ms | acks %llu\n\n",
              static_cast<unsigned long long>(s.retransmits_rto),
              static_cast<unsigned long long>(s.retransmits_fast), s.srtt.value(),
              static_cast<unsigned long long>(s.acks_sent));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    run_with_rule(argv[1]);
    return 0;
  }
  std::printf("netem playground: a TCP-like stream under each paper fault\n\n");
  for (const char* rule :
       {"", "delay 5ms", "delay 25ms", "delay 50ms", "loss 2%", "loss 5%",
        "delay 50ms 10ms distribution normal loss 2%", "loss gemodel 1% 10%",
        "rate 30mbit", "corrupt 2%", "duplicate 5%", "delay 40ms reorder 25% gap 5"}) {
    run_with_rule(rule);
  }
  return 0;
}
