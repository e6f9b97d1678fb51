// Greedy (adversarial) source: keeps its token bucket empty.
//
// §4: the Parekh–Gallager bounds "are strict, in that they can be realized
// with a set of greedy sources which keep their token buckets empty".  A
// greedy source drains the full bucket as an instantaneous back-to-back
// burst at start, then sends at exactly the token rate — the worst case a
// conforming source can present.  Used by the P–G property tests and the
// guaranteed-service benches.

#pragma once

#include "sim/timer.h"
#include "traffic/source.h"

namespace ispn::traffic {

class GreedySource final : public Source {
 public:
  struct Config {
    TokenBucketSpec bucket;  ///< the (r, b) filter to saturate
    sim::Bits packet_bits = sim::paper::kPacketBits;
    std::uint64_t limit = 0;  ///< stop after this many packets (0 = none)
  };

  GreedySource(sim::Simulator& sim, Config config, net::FlowId flow,
               net::NodeId src, net::NodeId dst, EmitFn emit,
               net::FlowStats* stats = nullptr)
      // The greedy source polices itself by construction; installing the
      // same filter verifies conformance (a property test does exactly
      // that), so pass it through as the edge policer.
      : Source(sim, flow, src, dst, std::move(emit), stats, config.bucket),
        config_(config),
        tick_(sim, [this] { tick(); }) {}

  void start(sim::Time at) override {
    start_pending_ = true;
    sim_.at(at, [this] {
      start_pending_ = false;
      // Initial burst: floor(b/p) back-to-back packets.
      const auto burst = static_cast<std::uint64_t>(config_.bucket.depth /
                                                    config_.packet_bits);
      for (std::uint64_t i = 0; i < burst; ++i) {
        if (done()) return;
        generate(config_.packet_bits);
        ++sent_;
      }
      arm_next();
    });
  }

  void stop() override { stopped_ = true; }

  [[nodiscard]] bool idle() const override {
    return !start_pending_ && !tick_.pending();
  }

 private:
  [[nodiscard]] bool done() const {
    return stopped_ || (config_.limit != 0 && sent_ >= config_.limit);
  }

  /// After the burst, tokens accrue at rate r: one packet per p/r seconds.
  void arm_next() {
    if (done()) return;
    tick_.arm_after(config_.packet_bits / config_.bucket.rate);
  }

  void tick() {
    if (done()) return;
    generate(config_.packet_bits);
    ++sent_;
    arm_next();
  }

  Config config_;
  sim::Timer tick_;  ///< token-paced emission, re-armed per packet
  std::uint64_t sent_ = 0;
  bool start_pending_ = false;  ///< start()'s one-shot has not fired yet
  bool stopped_ = false;
};

}  // namespace ispn::traffic
