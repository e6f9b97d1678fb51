// TCP Reno over the simulated network: delivery, congestion response,
// recovery from drops, determinism.

#include "traffic/tcp.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "net/topology.h"
#include "sched/fifo.h"

namespace ispn::traffic {
namespace {

struct TcpHarness {
  net::Network net;
  net::DumbbellTopology topo;
  std::unique_ptr<TcpSource> source;
  std::unique_ptr<TcpSink> sink;

  explicit TcpHarness(std::size_t buffer_pkts = 200,
                      TcpSource::Config config = TcpSource::Config()) {
    topo = net::build_dumbbell(net, 1e6, [buffer_pkts] {
      return std::make_unique<sched::FifoScheduler>(buffer_pkts);
    });
    net::Host& src_host = net.host(topo.left_host);
    net::Host& dst_host = net.host(topo.right_host);
    source = std::make_unique<TcpSource>(
        net.sim(), config, 1, topo.left_host, topo.right_host,
        [&src_host](net::PacketPtr p) { src_host.inject(std::move(p)); },
        &net.stats(1));
    sink = std::make_unique<TcpSink>(
        net.sim(), config, 1, topo.right_host, topo.left_host,
        [&dst_host](net::PacketPtr p) { dst_host.inject(std::move(p)); });
    src_host.register_sink(1, source.get());
    net.attach_stats_sink(1, topo.right_host, sink.get());
  }
};

TEST(Tcp, BulkTransferSaturatesLink) {
  TcpHarness h;
  h.source->start(0);
  h.net.sim().run_until(30.0);
  // 1 Mb/s of 1000-bit segments = 1000 seg/s; expect near-full utilisation
  // after slow start.
  EXPECT_GT(h.source->delivered(), 25000u);
  EXPECT_GT(h.net
                .port(h.topo.left_switch, h.topo.right_switch)
                ->utilization(30.0),
            0.90);
}

TEST(Tcp, InOrderDeliveryAtSink) {
  TcpHarness h;
  h.source->start(0);
  h.net.sim().run_until(5.0);
  // Cumulative receiver: rcv_next equals the delivered prefix up to ACKs
  // still in flight when the run is cut (at most one window).
  EXPECT_GE(h.sink->rcv_next(), h.source->delivered());
  EXPECT_LE(h.sink->rcv_next() - h.source->delivered(), 64u);
}

TEST(Tcp, CongestionWindowGrowsInSlowStart) {
  TcpHarness h(/*buffer_pkts=*/10000);
  h.source->start(0);
  h.net.sim().run_until(0.05);  // a few RTTs, no loss yet
  EXPECT_GT(h.source->cwnd(), 2.0);
  EXPECT_EQ(h.source->retransmits(), 0u);
}

TEST(Tcp, RecoversFromBufferOverflowDrops) {
  TcpHarness h(/*buffer_pkts=*/10);  // tiny buffer forces drops
  h.source->start(0);
  h.net.sim().run_until(30.0);
  EXPECT_GT(h.net.stats(1).net_drops, 0u);
  EXPECT_GT(h.source->retransmits(), 0u);
  // Despite drops, goodput continues (no deadlock): most of the link used.
  EXPECT_GT(h.source->delivered(), 15000u);
  EXPECT_GE(h.sink->rcv_next(), h.source->delivered());
  EXPECT_LE(h.sink->rcv_next() - h.source->delivered(), 64u);
}

TEST(Tcp, SsthreshDropsAfterLoss) {
  TcpHarness h(/*buffer_pkts=*/10);
  h.source->start(0);
  h.net.sim().run_until(30.0);
  EXPECT_LT(h.source->ssthresh(), 64.0);  // initial value was cut
}

TEST(Tcp, RttEstimateTracksPathRtt) {
  TcpHarness h(10000);
  h.source->start(0);
  h.net.sim().run_until(2.0);
  // Path RTT: 1 ms data + ~0.32 ms ack + queueing; srtt must be sane.
  EXPECT_GT(h.source->srtt(), 0.0005);
  EXPECT_LT(h.source->srtt(), 0.3);
}

TEST(Tcp, StopCeasesTransmission) {
  TcpHarness h;
  h.source->start(0);
  h.net.sim().run_until(1.0);
  h.source->stop();
  const auto sent = h.source->sent_segments();
  h.net.sim().run_until(2.0);
  EXPECT_EQ(h.source->sent_segments(), sent);
}

// A flow closed before its start instant (an orphan at open, a batch flow
// with a start offset) must never send: stop() keeps the pending start
// event from starting the transfer.  Before the guard this standalone
// source sent 3 segments and took 2 timeouts by t = 5.
TEST(Tcp, StopBeforeStartNeverSends) {
  sim::Simulator sim;
  std::uint64_t emitted = 0;
  TcpSource src(sim, TcpSource::Config(), 1, 0, 1,
                [&emitted](net::PacketPtr) { ++emitted; });
  src.start(1.0);
  src.stop();
  sim.run_until(5.0);
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(src.sent_segments(), 0u);
  EXPECT_EQ(src.timeouts(), 0u);
  EXPECT_FALSE(src.rto_pending());
}

// The start event captures the source, so a source stopped before it
// fires is not idle (not safe to free) until it has.
TEST(Tcp, StoppedBeforeStartIsIdleOnlyOnceStartFires) {
  sim::Simulator sim;
  TcpSource src(sim, TcpSource::Config(), 1, 0, 1, [](net::PacketPtr) {});
  EXPECT_TRUE(src.idle());  // never started: nothing refers to it
  src.start(1.0);
  src.stop();
  EXPECT_FALSE(src.idle());
  sim.run_until(0.5);
  EXPECT_FALSE(src.idle());
  sim.run_until(1.0);
  EXPECT_TRUE(src.idle());
}

// stop() disarms every timer, so a running source is idle right away.
TEST(Tcp, StopMakesARunningSourceIdle) {
  TcpHarness h;
  h.source->start(0);
  h.net.sim().run_until(1.0);
  EXPECT_FALSE(h.source->idle());  // its RTO is pending
  h.source->stop();
  EXPECT_TRUE(h.source->idle());
}

TEST(Tcp, DeterministicAcrossRuns) {
  auto run = [] {
    TcpHarness h(50);
    h.source->start(0);
    h.net.sim().run_until(10.0);
    return std::tuple{h.source->delivered(), h.source->retransmits(),
                      h.source->timeouts()};
  };
  EXPECT_EQ(run(), run());
}

TEST(Tcp, MaxCwndCapsInflight) {
  TcpSource::Config config;
  config.max_cwnd = 4.0;
  TcpHarness h(10000, config);
  h.source->start(0);
  h.net.sim().run_until(10.0);
  // Window 4 packets, RTT >= 4ms (4 segment times + ack) -> rate well
  // below link capacity; and cwnd reported never exceeds the cap's use.
  EXPECT_LT(h.source->delivered(), 11000u);
  EXPECT_EQ(h.source->retransmits(), 0u);
}

TEST(Tcp, AcksCarryCumulativeSequence) {
  TcpHarness h;
  h.source->start(0);
  h.net.sim().run_until(0.2);
  EXPECT_GT(h.sink->acks_sent(), 0u);
  EXPECT_GE(h.sink->rcv_next(), h.source->delivered());
  EXPECT_LE(h.sink->rcv_next() - h.source->delivered(), 64u);
}

// --- RTO re-arm rule ------------------------------------------------------

TEST(TcpRtoRearm, AnchoredAtEarliestOutstandingSend) {
  // The old rule re-armed `now + rto` on every ACK, quietly granting the
  // oldest un-acked segment a fresh full RTO each time newer data was
  // acknowledged — under a steady ACK clock the timer could recede
  // forever.  The fix anchors the expiry at the EARLIEST outstanding
  // transmission.  Driven directly (no network) so the send times are
  // exact: seq 0 and 1 go out at t=0; ACKing seq 0 at t=0.5 leaves seq 1
  // (sent at 0) outstanding, so the timer must expire at 0 + rto, not
  // 0.5 + rto.
  sim::Simulator sim;
  std::vector<net::PacketPtr> wire;
  TcpSource::Config config;
  config.initial_cwnd = 2.0;
  TcpSource src(
      sim, config, 1, 0, 1,
      [&wire](net::PacketPtr p) { wire.push_back(std::move(p)); }, nullptr);
  src.start(0.0);
  sim.run_until(0.0);
  ASSERT_EQ(wire.size(), 2u);  // initial window: seq 0 and 1 at t=0
  ASSERT_TRUE(src.rto_pending());

  sim.run_until(0.5);  // nothing fires; the clock just advances
  auto ack = net::make_packet(1, 0, 1, 0, 0.5, config.ack_bits);
  ack->is_ack = true;
  ack->ack_seq = 1;
  src.on_packet(std::move(ack), 0.5);

  ASSERT_GT(src.delivered(), 0u);
  ASSERT_TRUE(src.rto_pending());
  // Anchored at seq 1's transmission time (t=0), not at the ACK instant.
  EXPECT_DOUBLE_EQ(src.sent_at(1), 0.0);
  EXPECT_DOUBLE_EQ(src.rto_expiry(), src.sent_at(1) + src.rto());
  EXPECT_LT(src.rto_expiry(), 0.5 + src.rto());
}

TEST(TcpRtoRearm, FreshWindowAfterFullAckUsesNewSendTimes) {
  // Once everything outstanding is acked, the next window's timer anchors
  // at the new earliest send, which IS the current instant.
  sim::Simulator sim;
  std::vector<net::PacketPtr> wire;
  TcpSource::Config config;  // initial_cwnd = 1
  TcpSource src(
      sim, config, 1, 0, 1,
      [&wire](net::PacketPtr p) { wire.push_back(std::move(p)); }, nullptr);
  src.start(0.0);
  sim.run_until(0.0);
  ASSERT_EQ(wire.size(), 1u);

  sim.run_until(0.3);
  auto ack = net::make_packet(1, 0, 1, 0, 0.3, config.ack_bits);
  ack->is_ack = true;
  ack->ack_seq = 1;
  src.on_packet(std::move(ack), 0.3);

  ASSERT_GT(wire.size(), 1u);  // cwnd grew: next window out at t=0.3
  ASSERT_TRUE(src.rto_pending());
  EXPECT_DOUBLE_EQ(src.rto_expiry(), 0.3 + src.rto());
}

// --- per-stack behaviour over the real network ----------------------------

TEST(TcpStacks, BbrDeliversAndPacesWithoutLoss) {
  TcpSource::Config config;
  config.cc = CcAlgo::kBbr;
  TcpHarness h(/*buffer_pkts=*/10000, config);
  h.source->start(0);
  h.net.sim().run_until(30.0);
  EXPECT_EQ(h.source->algo(), CcAlgo::kBbr);
  // Rate-based pacing converges near the link rate without needing loss.
  EXPECT_GT(h.source->delivered(), 20000u);
  EXPECT_GE(h.sink->rcv_next(), h.source->delivered());
}

TEST(TcpStacks, BbrSurvivesTinyBuffer) {
  TcpSource::Config config;
  config.cc = CcAlgo::kBbr;
  TcpHarness h(/*buffer_pkts=*/10, config);
  h.source->start(0);
  h.net.sim().run_until(30.0);
  // A paced sender barely stresses a tiny buffer: goodput keeps flowing.
  EXPECT_GT(h.source->delivered(), 10000u);
}

TEST(TcpStacks, RackRecoversViaReorderTimer) {
  TcpSource::Config config;
  config.cc = CcAlgo::kRack;
  TcpHarness h(/*buffer_pkts=*/10, config);
  h.source->start(0);
  h.net.sim().run_until(30.0);
  EXPECT_EQ(h.source->algo(), CcAlgo::kRack);
  EXPECT_GT(h.net.stats(1).net_drops, 0u);
  // Losses are declared by the reorder timer, never by an instant
  // three-dup-ack retransmit.
  EXPECT_GT(h.source->reorder_timeouts(), 0u);
  EXPECT_GT(h.source->retransmits(), 0u);
  EXPECT_GT(h.source->delivered(), 10000u);
  EXPECT_GE(h.sink->rcv_next(), h.source->delivered());
}

TEST(TcpStacks, EachStackIsDeterministic) {
  for (const CcAlgo algo : {CcAlgo::kReno, CcAlgo::kBbr, CcAlgo::kRack}) {
    auto run = [algo] {
      TcpSource::Config config;
      config.cc = algo;
      TcpHarness h(50, config);
      h.source->start(0);
      h.net.sim().run_until(10.0);
      return std::tuple{h.source->delivered(), h.source->retransmits(),
                        h.source->timeouts(), h.source->reorder_timeouts()};
    };
    EXPECT_EQ(run(), run()) << to_string(algo);
  }
}

}  // namespace
}  // namespace ispn::traffic
