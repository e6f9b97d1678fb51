// Poisson source: exponential inter-packet gaps.
//
// Not used by the paper's tables (its sources are on/off Markov) but a
// standard comparison workload for datagram traffic and tests.

#pragma once

#include "sim/timer.h"
#include "traffic/source.h"

namespace ispn::traffic {

class PoissonSource final : public Source {
 public:
  struct Config {
    double rate_pps = 100.0;
    sim::Bits packet_bits = sim::paper::kPacketBits;
  };

  PoissonSource(sim::Simulator& sim, Config config, sim::Rng rng,
                net::FlowId flow, net::NodeId src, net::NodeId dst,
                EmitFn emit, net::FlowStats* stats = nullptr,
                std::optional<TokenBucketSpec> police = std::nullopt)
      : Source(sim, flow, src, dst, std::move(emit), stats, police),
        config_(config),
        rng_(rng),
        tick_(sim, [this] { tick(); }) {}

  void start(sim::Time at) override { tick_.arm_at(at); }

  void stop() override { stopped_ = true; }

  [[nodiscard]] bool idle() const override { return !tick_.pending(); }

 private:
  void tick() {
    if (stopped_) return;
    generate(config_.packet_bits);
    tick_.arm_after(rng_.exponential(1.0 / config_.rate_pps));
  }

  Config config_;
  sim::Rng rng_;
  sim::Timer tick_;  ///< the one arrival event, re-armed per packet
  bool stopped_ = false;
};

}  // namespace ispn::traffic
