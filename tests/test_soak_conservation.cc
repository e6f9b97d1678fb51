// Million-packet soak: conservation and allocation discipline at scale.
//
// An asymmetric-rate parking-lot — four sources entering the merge switch
// over feed links of different speeds, all contending for one 1 Mbit/s
// bottleneck — runs ~2 million offered packets end to end.  Two global
// invariants are asserted:
//
//   conservation   offered == delivered + dropped + queued, checked
//                  mid-flight (with queued counted across every port and
//                  in-flight transmission) and after the drain (queued=0);
//
//   allocation     the steady-state phase performs ZERO heap allocations
//                  (this binary links the counting operator new/delete
//                  overrides from alloc_hook.cc): pools, rings, slabs and
//                  the ordering structures must all have stopped growing
//                  once warmed.
//
// ctest runs this under the `soak` label so sanitizer jobs can exclude it.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_hook.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/wfq.h"
#include "traffic/cbr_source.h"

namespace ispn {
namespace {

/// Per-flow delivery counter that deliberately records nothing per-packet
/// beyond the tallies, so the steady state has no growing sample vectors.
class CountingSink final : public net::FlowSink {
 public:
  void on_packet(net::PacketPtr p, sim::Time) override {
    ++received_;
    bits_ += p->size_bits;
  }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] sim::Bits bits() const { return bits_; }

 private:
  std::uint64_t received_ = 0;
  sim::Bits bits_ = 0;
};

TEST(Soak, AsymmetricParkingLotConservesPacketsWithoutAllocating) {
  net::Network net;
  // Feed links: 2 Mbit/s, 1 Mbit/s, 0.5 Mbit/s, and an infinitely fast
  // one; the 1 Mbit/s merge->out port is the shared bottleneck.
  const std::vector<sim::Rate> feeds = {2e6, 1e6, 5e5, 0};
  const auto topo = net::build_fan_in(net, feeds, 1e6, [] {
    return std::make_unique<sched::WfqScheduler>(
        sched::WfqScheduler::Config{1e6, 200, 1.0});
  });

  constexpr int kFlows = 4;
  constexpr double kRunSeconds = 500.0;
  // Offered load: 2x the bottleneck (2000 pkt/s against 1000 pkt/s), with
  // deliberately uneven per-flow rates -> ~2M offered packets in total
  // (1M+ delivered or dropped at the merge under WFQ pushout).
  const double rate_pps[kFlows] = {1400.0, 1100.0, 900.0, 600.0};

  std::vector<CountingSink> sinks(kFlows);
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  for (int f = 0; f < kFlows; ++f) {
    net.host(topo.sink_host).register_sink(f, &sinks[static_cast<std::size_t>(f)]);
    traffic::CbrSource::Config cfg;
    cfg.rate_pps = rate_pps[f];
    cfg.limit = static_cast<std::uint64_t>(rate_pps[f] * kRunSeconds);
    auto& host = net.host(topo.src_hosts[static_cast<std::size_t>(f)]);
    sources.push_back(std::make_unique<traffic::CbrSource>(
        net.sim(), cfg, f, host.id(), topo.sink_host,
        [&host](net::PacketPtr p) { host.inject(std::move(p)); }));
    // Staggered starts: avoid every source ticking at the same instants.
    sources.back()->start(0.00025 * f);
  }

  // Every queueing port in the fabric (both directions of each link;
  // rate<=0 links are infinitely fast and have no scheduler to inspect).
  std::vector<net::Port*> ports;
  for (std::size_t i = 0; i < topo.edge_switches.size(); ++i) {
    for (auto [a, b] : {std::pair{topo.edge_switches[i], topo.merge_switch},
                        std::pair{topo.merge_switch, topo.edge_switches[i]}}) {
      if (net::Port* p = net.port(a, b); p != nullptr && p->rate() > 0) {
        ports.push_back(p);
      }
    }
  }
  for (auto [a, b] : {std::pair{topo.merge_switch, topo.sink_switch},
                      std::pair{topo.sink_switch, topo.merge_switch}}) {
    if (net::Port* p = net.port(a, b); p != nullptr && p->rate() > 0) {
      ports.push_back(p);
    }
  }
  ASSERT_GE(ports.size(), 2u);

  const auto offered = [&] {
    std::uint64_t n = 0;
    for (const auto& s : sources) n += s->generated();
    return n;
  };
  const auto delivered = [&] {
    std::uint64_t n = 0;
    for (const auto& s : sinks) n += s.received();
    return n;
  };
  const auto dropped = [&] {
    std::uint64_t n = 0;
    for (const net::Port* p : ports) n += p->drops();
    return n;
  };
  const auto queued = [&] {
    std::uint64_t n = 0;
    for (net::Port* p : ports) {
      n += p->scheduler().packets() + (p->busy() ? 1 : 0);
    }
    return n;
  };

  // Mid-flight conservation (queued != 0 here) and the steady-state
  // allocation window [t=100, t=400] — warmup has filled every pool, ring,
  // slab and bucket by t=100.
  std::uint64_t allocs_at_100 = 0;
  bool midpoint_checked = false;
  net.sim().at(100.0, [&allocs_at_100] {
    allocs_at_100 = testhook::allocation_count();
  });
  net.sim().at(250.0, [&] {
    midpoint_checked = true;
    EXPECT_GT(queued(), 0u);
    EXPECT_EQ(offered(), delivered() + dropped() + queued());
  });
  std::uint64_t steady_allocs = ~0ull;
  net.sim().at(400.0, [&allocs_at_100, &steady_allocs] {
    steady_allocs = testhook::allocation_count() - allocs_at_100;
  });

  net.sim().run();

  EXPECT_TRUE(midpoint_checked);
  EXPECT_EQ(steady_allocs, 0u) << "steady-state phase allocated";

  // Drained: conservation with queued == 0, and scale actually reached.
  EXPECT_EQ(queued(), 0u);
  const std::uint64_t total = offered();
  EXPECT_GE(total, 1000000u) << "soak did not reach 1M offered packets";
  EXPECT_EQ(total, delivered() + dropped());
  // The bottleneck genuinely overloaded: substantial loss AND substantial
  // delivery, with every flow getting something through (WFQ isolation).
  EXPECT_GT(dropped(), total / 10);
  EXPECT_GT(delivered(), total / 4);
  for (const auto& s : sinks) EXPECT_GT(s.received(), 0u);
  EXPECT_EQ(net.host(topo.sink_host).unclaimed(), 0u);
  // Per-flow ledger: net_drops (fed by every port's drop hook) plus
  // deliveries must account for every injected packet.
  for (int f = 0; f < kFlows; ++f) {
    EXPECT_EQ(sources[static_cast<std::size_t>(f)]->generated(),
              sinks[static_cast<std::size_t>(f)].received() +
                  net.stats(f).net_drops)
        << "flow " << f;
  }
}

}  // namespace
}  // namespace ispn
