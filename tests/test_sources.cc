// On/off Markov, CBR, Poisson and greedy sources: rates, burst geometry,
// policing behaviour (the paper's ~2% source drop), conformance.

#include <gtest/gtest.h>

#include <vector>

#include "traffic/cbr_source.h"
#include "traffic/greedy_source.h"
#include "traffic/onoff_source.h"
#include "traffic/poisson_source.h"

namespace ispn::traffic {
namespace {

struct Collector {
  std::vector<TracePacket> trace;
  std::uint64_t count = 0;

  EmitFn emit() {
    return [this](net::PacketPtr p) {
      trace.push_back({p->created_at, p->size_bits});
      ++count;
    };
  }
};

TEST(OnOffConfig, PaperParameterRelations) {
  OnOffSource::Config c;  // defaults = paper values
  EXPECT_DOUBLE_EQ(c.avg_rate_pps, 85.0);
  EXPECT_DOUBLE_EQ(c.peak_pps(), 170.0);
  // A^{-1} = I/B + 1/P  must hold for the derived idle time.
  EXPECT_NEAR(1.0 / c.avg_rate_pps,
              c.mean_idle() / c.mean_burst_pkts + 1.0 / c.peak_pps(), 1e-12);
  EXPECT_DOUBLE_EQ(c.avg_bps(), 85000.0);
  EXPECT_DOUBLE_EQ(c.peak_bps(), 170000.0);
  EXPECT_DOUBLE_EQ(c.paper_filter().rate, 85000.0);
  EXPECT_DOUBLE_EQ(c.paper_filter().depth, 50000.0);
}

TEST(OnOffSource, UnpolicedRateMatchesA) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource src(sim, {}, sim::Rng(1), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  src.start(0);
  const double seconds = 400.0;
  sim.run_until(seconds);
  const double rate = static_cast<double>(sink.count) / seconds;
  EXPECT_NEAR(rate / 85.0, 1.0, 0.03);
}

TEST(OnOffSource, PaperFilterDropsAboutTwoPercent) {
  sim::Simulator sim;
  Collector sink;
  net::FlowStats stats;
  OnOffSource::Config config;
  OnOffSource src(sim, config, sim::Rng(2), 0, 0, 1, sink.emit(), &stats,
                  config.paper_filter());
  src.start(0);
  sim.run_until(600.0);
  const double drop = stats.source_drop_rate();
  // Paper: "in our simulations about 2% of the packets were dropped".
  EXPECT_GT(drop, 0.002);
  EXPECT_LT(drop, 0.08);
  EXPECT_EQ(stats.generated, stats.injected + stats.source_drops);
}

TEST(OnOffSource, PolicedOutputConformsToFilter) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource::Config config;
  OnOffSource src(sim, config, sim::Rng(3), 0, 0, 1, sink.emit(), nullptr,
                  config.paper_filter());
  src.start(0);
  sim.run_until(200.0);
  EXPECT_TRUE(conforms(sink.trace, config.paper_filter()));
}

TEST(OnOffSource, BurstSpacingIsPeakRate) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource src(sim, {}, sim::Rng(4), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  src.start(0);
  sim.run_until(100.0);
  // Every inter-packet gap is either 1/P (within burst) or > 1/P (idle).
  const double slot = 1.0 / 170.0;
  int within = 0;
  for (std::size_t i = 1; i < sink.trace.size(); ++i) {
    const double gap = sink.trace[i].time - sink.trace[i - 1].time;
    EXPECT_GE(gap, slot - 1e-9);
    if (gap < slot + 1e-9) ++within;
  }
  // With B = 5, roughly 4/5 of gaps are within-burst.
  EXPECT_GT(within, static_cast<int>(sink.trace.size() / 2));
}

TEST(OnOffSource, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    Collector sink;
    OnOffSource src(sim, {}, sim::Rng(seed), 0, 0, 1, sink.emit(), nullptr,
                    std::nullopt);
    src.start(0);
    sim.run_until(50.0);
    return sink.trace;
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
  }
  EXPECT_NE(run(43).size(), 0u);
}

TEST(OnOffSource, StopHaltsGeneration) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource src(sim, {}, sim::Rng(5), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  src.start(0);
  sim.run_until(10.0);
  const auto count = sink.count;
  EXPECT_GT(count, 0u);
  src.stop();
  sim.run_until(20.0);
  EXPECT_EQ(sink.count, count);
}

// The start event captures the source, so a source stopped before it
// fires is not idle (not safe to free) until it has; after that the
// stopped source arms nothing.
TEST(OnOffSource, StoppedBeforeStartIsIdleOnlyOnceStartFires) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource src(sim, {}, sim::Rng(5), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  EXPECT_TRUE(src.idle());  // never started: nothing refers to it
  src.start(1.0);
  src.stop();
  EXPECT_FALSE(src.idle());
  sim.run_until(0.5);
  EXPECT_FALSE(src.idle());
  sim.run_until(1.0);
  EXPECT_TRUE(src.idle());
  sim.run_until(10.0);
  EXPECT_EQ(sink.count, 0u);
}

// A source stopped mid-run is idle once its pending emission has fired
// as a no-op.
TEST(OnOffSource, StoppedSourceIsIdleAfterItsPendingTick) {
  sim::Simulator sim;
  Collector sink;
  OnOffSource src(sim, {}, sim::Rng(5), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  src.start(0);
  sim.run_until(5.0);
  ASSERT_GT(sink.count, 0u);
  src.stop();
  EXPECT_FALSE(src.idle());  // the next emission is still armed
  sim.run_until(20.0);
  EXPECT_TRUE(src.idle());
}

class OnOffRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(OnOffRateSweep, AverageRateTracksConfiguredA) {
  const double A = GetParam();
  sim::Simulator sim;
  Collector sink;
  OnOffSource::Config config;
  config.avg_rate_pps = A;
  OnOffSource src(sim, config, sim::Rng(6), 0, 0, 1, sink.emit(), nullptr,
                  std::nullopt);
  src.start(0);
  const double seconds = 300.0;
  sim.run_until(seconds);
  EXPECT_NEAR(static_cast<double>(sink.count) / seconds / A, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, OnOffRateSweep,
                         ::testing::Values(20.0, 85.0, 300.0));

// -------------------------------------------------------------------- CBR --

TEST(CbrSource, ExactSpacing) {
  sim::Simulator sim;
  Collector sink;
  CbrSource src(sim, {.rate_pps = 10.0, .packet_bits = 1000, .limit = 5}, 0, 0,
                1, sink.emit());
  src.start(0);
  sim.run();
  ASSERT_EQ(sink.trace.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(sink.trace[i].time, 0.1 * static_cast<double>(i), 1e-12);
  }
}

TEST(CbrSource, LimitZeroMeansUnlimited) {
  sim::Simulator sim;
  Collector sink;
  CbrSource src(sim, {.rate_pps = 100.0, .packet_bits = 1000, .limit = 0}, 0,
                0, 1, sink.emit());
  src.start(0);
  sim.run_until(10.0);
  EXPECT_NEAR(static_cast<double>(sink.count), 1000.0, 2.0);
}

// ---------------------------------------------------------------- Poisson --

TEST(PoissonSource, RateMatches) {
  sim::Simulator sim;
  Collector sink;
  PoissonSource src(sim, {.rate_pps = 50.0, .packet_bits = 1000},
                    sim::Rng(8), 0, 0, 1, sink.emit());
  src.start(0);
  const double seconds = 400.0;
  sim.run_until(seconds);
  EXPECT_NEAR(static_cast<double>(sink.count) / seconds / 50.0, 1.0, 0.05);
}

// ----------------------------------------------------------------- Greedy --

TEST(GreedySource, EmitsFullBurstAtStart) {
  sim::Simulator sim;
  Collector sink;
  GreedySource src(sim,
                   {.bucket = {1000.0, 5000.0}, .packet_bits = 1000.0,
                    .limit = 0},
                   0, 0, 1, sink.emit());
  src.start(0);
  sim.run_until(0.0);
  EXPECT_EQ(sink.count, 5u);  // 5 back-to-back packets at t = 0
}

TEST(GreedySource, SendsAtTokenRateAfterBurst) {
  sim::Simulator sim;
  Collector sink;
  GreedySource src(sim,
                   {.bucket = {1000.0, 3000.0}, .packet_bits = 1000.0,
                    .limit = 13},
                   0, 0, 1, sink.emit());
  src.start(0);
  sim.run_until(100.0);
  EXPECT_EQ(sink.count, 13u);
  // After the 3-packet burst, one packet per second.
  EXPECT_NEAR(sink.trace.back().time, 10.0, 1e-9);
}

TEST(GreedySource, OutputConformsToItsBucket) {
  sim::Simulator sim;
  Collector sink;
  const TokenBucketSpec bucket{2000.0, 7000.0};
  GreedySource src(sim, {.bucket = bucket, .packet_bits = 1000.0,
                         .limit = 100},
                   0, 0, 1, sink.emit());
  src.start(0);
  sim.run_until(200.0);
  EXPECT_EQ(sink.count, 100u);
  EXPECT_TRUE(conforms(sink.trace, bucket));
}

TEST(GreedySource, KeepsBucketEmpty) {
  // "Greedy sources keep their token buckets empty": immediately after each
  // send the bucket has < 1 packet of tokens.  We verify via the trace: no
  // gap ever exceeds p/r once past the initial burst (tokens never pool).
  sim::Simulator sim;
  Collector sink;
  const TokenBucketSpec bucket{1000.0, 4000.0};
  GreedySource src(sim, {.bucket = bucket, .packet_bits = 1000.0,
                         .limit = 50},
                   0, 0, 1, sink.emit());
  src.start(0);
  sim.run_until(100.0);
  for (std::size_t i = 5; i < sink.trace.size(); ++i) {
    EXPECT_NEAR(sink.trace[i].time - sink.trace[i - 1].time, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace ispn::traffic
