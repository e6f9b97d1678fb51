// Constant-bit-rate source: one packet every 1/rate seconds.
//
// Used for rigid real-time clients and as a deterministic workload in
// tests (a CBR source at its own clock rate should see near-zero queueing
// under WFQ).

#pragma once

#include "sim/timer.h"
#include "traffic/source.h"

namespace ispn::traffic {

class CbrSource final : public Source {
 public:
  struct Config {
    double rate_pps = 100.0;  ///< packets per second
    sim::Bits packet_bits = sim::paper::kPacketBits;
    /// Stop after this many packets (0 = unlimited).
    std::uint64_t limit = 0;
  };

  CbrSource(sim::Simulator& sim, Config config, net::FlowId flow,
            net::NodeId src, net::NodeId dst, EmitFn emit,
            net::FlowStats* stats = nullptr,
            std::optional<TokenBucketSpec> police = std::nullopt)
      : Source(sim, flow, src, dst, std::move(emit), stats, police),
        period_(1.0 / config.rate_pps),
        packet_bits_(config.packet_bits),
        limit_(config.limit),
        tick_(sim, [this] { tick(); }) {}

  void start(sim::Time at) override { tick_.arm_at(at); }

  void stop() override { stopped_ = true; }

  [[nodiscard]] bool idle() const override { return !tick_.pending(); }

 private:
  void tick() {
    if (stopped_) return;
    if (limit_ != 0 && sent_ >= limit_) return;
    generate(packet_bits_);
    ++sent_;
    tick_.arm_after(period_);
  }

  sim::Duration period_;  ///< 1 / Config::rate_pps, divided once
  sim::Bits packet_bits_;
  std::uint64_t limit_;
  sim::Timer tick_;  ///< the one emission event, re-armed per packet
  std::uint64_t sent_ = 0;
  bool stopped_ = false;
};

}  // namespace ispn::traffic
