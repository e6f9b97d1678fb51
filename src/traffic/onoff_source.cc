#include "traffic/onoff_source.h"

#include <utility>

namespace ispn::traffic {

OnOffSource::OnOffSource(sim::Simulator& sim, Config config, sim::Rng rng,
                         net::FlowId flow, net::NodeId src, net::NodeId dst,
                         EmitFn emit, net::FlowStats* stats,
                         std::optional<TokenBucketSpec> police)
    : Source(sim, flow, src, dst, std::move(emit), stats, police),
      config_(config),
      rng_(rng),
      tick_(sim, [this] { emit_next(); }) {}

void OnOffSource::start(sim::Time at) {
  // Begin with an idle period so sources with different streams desynchronise.
  start_pending_ = true;
  sim_.at(at, [this] {
    start_pending_ = false;
    if (stopped_) return;
    tick_.arm_after(rng_.exponential(config_.mean_idle()));
  });
}

void OnOffSource::emit_next() {
  if (stopped_) return;
  if (remaining_ == 0) {
    // Start of a burst: draw its geometric length.
    remaining_ = rng_.geometric1(config_.mean_burst_pkts);
  }
  generate(config_.packet_bits);
  if (--remaining_ > 0) {
    tick_.arm_after(1.0 / config_.peak_pps());
  } else {
    // The last packet still occupies a 1/P slot before the idle period, so
    // that E[cycle] = B/P + I and the average rate is exactly A
    // (A^{-1} = I/B + 1/P).
    tick_.arm_after(1.0 / config_.peak_pps() +
                    rng_.exponential(config_.mean_idle()));
  }
}

}  // namespace ispn::traffic
