// The paper's two-state Markov on/off source (Appendix).
//
// In each burst period a geometrically distributed number of packets (mean
// B) is generated at peak rate P; the source then idles for an
// exponentially distributed period of mean I.  The average rate A obeys
//
//     A^{-1} = I/B + 1/P.
//
// The paper fixes B = 5 and P = 2A (hence I = B/(2A)), characterising each
// source by A alone (85 pkt/s in all experiments), and polices each source
// with an (A, 50-packet) token bucket that drops ~2% of packets.

#pragma once

#include "sim/timer.h"
#include "traffic/source.h"

namespace ispn::traffic {

class OnOffSource final : public Source {
 public:
  struct Config {
    /// Average packet generation rate A (packets/second).
    double avg_rate_pps = sim::paper::kAvgPacketRate;
    /// Peak/average ratio (paper: 2).
    double peak_factor = sim::paper::kPeakFactor;
    /// Mean burst length B in packets (paper: 5).
    double mean_burst_pkts = sim::paper::kMeanBurst;
    /// Packet size in bits (paper: 1000).
    sim::Bits packet_bits = sim::paper::kPacketBits;

    /// Peak rate P in packets/second.
    [[nodiscard]] double peak_pps() const { return avg_rate_pps * peak_factor; }
    /// Mean idle period I = B·(1/A - 1/P).
    [[nodiscard]] double mean_idle() const {
      return mean_burst_pkts * (1.0 / avg_rate_pps - 1.0 / peak_pps());
    }
    /// Average bit rate A·packet_bits.
    [[nodiscard]] sim::Rate avg_bps() const {
      return avg_rate_pps * packet_bits;
    }
    /// Peak bit rate P·packet_bits.
    [[nodiscard]] sim::Rate peak_bps() const { return peak_pps() * packet_bits; }

    /// The paper's edge filter for this source: rate A, depth 50 packets.
    [[nodiscard]] TokenBucketSpec paper_filter() const {
      return {avg_bps(), sim::paper::kBucketPackets * packet_bits};
    }
  };

  OnOffSource(sim::Simulator& sim, Config config, sim::Rng rng,
              net::FlowId flow, net::NodeId src, net::NodeId dst, EmitFn emit,
              net::FlowStats* stats,
              std::optional<TokenBucketSpec> police);

  void start(sim::Time at) override;

  /// Stops generating after the current event chain unwinds.
  void stop() override { stopped_ = true; }

  [[nodiscard]] bool idle() const override {
    return !start_pending_ && !tick_.pending();
  }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void emit_next();

  Config config_;
  sim::Rng rng_;
  /// The one generation event: fires at each emission instant; the burst
  /// countdown lives in remaining_ rather than in per-event closures.
  sim::Timer tick_;
  std::uint64_t remaining_ = 0;  ///< packets left in the current burst
  bool start_pending_ = false;   ///< start()'s one-shot has not fired yet
  bool stopped_ = false;
};

}  // namespace ispn::traffic
