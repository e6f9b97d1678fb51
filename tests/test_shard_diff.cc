// Differential suite for the sharded parallel core (sim/shard.h).
//
// The contract under test: the sharded execution model is a function of
// the SPEC alone — the per-switch domain decomposition, the lookahead
// window grid and the mailbox merge order are all derived from the
// topology, never from the worker count.  So for any scenario, shard
// counts {1, 2, 3, 4} must produce BYTE-IDENTICAL runs under
// expect_same_run (scenario_test_util.h): packet traces, decision logs,
// every report counter, per-class statistics, link utilisation and
// per-flow outcome tables (doubles compared bit-exactly).  Three fabrics
// are fuzzed across seeds: a three-level fan-in tree (many domains, deep
// aggregation), an overloaded parking lot (drops + pushout) and a mesh
// under seeded link failures (reroutes, degradation, path epochs).
//
// The building blocks get their own unit tests: the SPSC handoff ring
// (order, wrap, full/empty, a real producer thread), the LinkMailbox
// (push-order preservation across ring overflow) and the window-advance
// rule (it may land early, never late, and agrees with a one-window-at-a-
// time walk).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/handoff.h"
#include "scenario_test_util.h"
#include "sim/shard.h"
#include "util/spsc_ring.h"

namespace ispn {
namespace {

// --- SPSC ring ------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  util::SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  util::SpscRing<int> exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(SpscRing, FifoOrderFullAndEmpty) {
  util::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "push into a full ring must fail";
  EXPECT_EQ(ring.size(), 4u);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, OrderSurvivesManyWraps) {
  util::SpscRing<int> ring(8);
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the indices wrap far past capacity.
  for (int round = 0; round < 1000; ++round) {
    for (int k = 0; k < 3; ++k) {
      if (ring.try_push(next_in)) ++next_in;
    }
    int v = -1;
    while (ring.try_pop(v)) {
      ASSERT_EQ(v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_out, 2000);
}

TEST(SpscRing, SingleProducerSingleConsumerThreads) {
  constexpr int kCount = 200000;
  util::SpscRing<int> ring(64);
  std::atomic<bool> failed{false};

  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kCount) {
    int v = -1;
    if (ring.try_pop(v)) {
      if (v != expected) {
        failed.store(true);
        break;
      }
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(failed.load()) << "ring reordered or corrupted an element";
  EXPECT_EQ(expected, kCount);
}

// --- window advance ---------------------------------------------------------

TEST(ShardSync, SkippingLandsEarlyNeverLate) {
  const sim::Duration w = 0.001;
  // Adversarial times: barriers, just-below/above barriers, irrationals.
  const double times[] = {0.0,       1.0e-3,     0.9999999999e-3,
                          1.0000000000001e-3,    0.25,
                          1.0 / 3.0, 12.345e-3,  59.999e-3,
                          1e4,       123456.789, 0.6180339887498949};
  for (const double t : times) {
    for (const std::uint64_t cur : {std::uint64_t{0}, std::uint64_t{3}}) {
      if (t < static_cast<double>(cur) * w) continue;
      const std::uint64_t m = sim::next_window(cur, t, w);
      EXPECT_GE(m, cur) << t;
      // Never late: the chosen window must not start after the event.
      EXPECT_LE(static_cast<double>(m) * w, t) << t;
      // Never more than one window early (relative fp slop tolerance:
      // the product m*w itself rounds at ~1e-16 relative).
      EXPECT_GE(static_cast<double>(m + 1) * w, t - 1e-9 * std::max(1.0, t))
          << t;
    }
  }
}

TEST(ShardSync, SkippingMatchesSteppingFixpoint) {
  const sim::Duration w = 0.0005;
  for (const double t : {0.0012, 0.25, 1.0 / 7.0, 3.3333, 17.0001}) {
    // Walk the window grid one step at a time until the window containing
    // t: stay while t is inside the current window, else advance by one.
    std::uint64_t cur = 0;
    while (t >= static_cast<double>(cur + 1) * w) ++cur;
    const std::uint64_t jumped = sim::next_window(0, t, w);
    // Skipping may land one early; executing that empty window is a no-op.
    EXPECT_TRUE(jumped == cur || jumped + 1 == cur)
        << "t=" << t << " step=" << cur << " skip=" << jumped;
  }
}

// --- LinkMailbox ----------------------------------------------------------

/// Records delivered (flow, seq) pairs in arrival order.
class SeqSink final : public net::FlowSink {
 public:
  void on_packet(net::PacketPtr p, sim::Time) override {
    seqs.push_back(p->seq);
  }
  std::vector<std::uint64_t> seqs;
};

TEST(LinkMailbox, PreservesPushOrderAcrossRingOverflow) {
  sim::Simulator dst_sim;
  net::Host host(dst_sim, 0, "dst");
  SeqSink sink;
  host.register_sink(7, &sink);

  net::PacketPool pool;
  pool.enable_concurrent_returns();
  // Ring capacity 4: the 10-packet burst spills 6 entries to overflow.
  net::LinkMailbox box(0.001, dst_sim, host, 4);
  for (std::uint64_t s = 0; s < 10; ++s) {
    auto p = net::make_packet(pool, 7, s, 1, 0, 0.0, 1000);
    box.push(std::move(p), 0.0);
  }
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.drain(), 10u);
  EXPECT_TRUE(box.empty());
  dst_sim.run();

  ASSERT_EQ(sink.seqs.size(), 10u);
  for (std::uint64_t s = 0; s < 10; ++s) {
    EXPECT_EQ(sink.seqs[s], s) << "overflow spill reordered the handoff";
  }
}

// --- whole-scenario byte-identity -----------------------------------------

using scenario_test::TracedRun;

TracedRun run_sharded(scenario::ScenarioSpec spec, int shards) {
  spec.shards = shards;
  return scenario_test::traced_run(std::move(spec));
}

/// Compares `spec` at 2, 3 and 4 workers against `ref`, its 1-worker run.
void shard_diff(const TracedRun& ref, const scenario::ScenarioSpec& spec,
                const char* label) {
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  // 3 workers split the domains unevenly.  The engine never starts more
  // threads than the hardware reports; a host that clamps a count ends the
  // test skipped rather than passing on fewer workers.
  const unsigned hw = std::thread::hardware_concurrency();
  std::string clamped;
  for (const int shards : {2, 3, 4}) {
    const TracedRun got = run_sharded(spec, shards);
    scenario_test::expect_same_run(
        ref, got,
        std::string(label) + " under shards = " + std::to_string(shards));
    if (hw > 0 && static_cast<unsigned>(shards) > hw) {
      clamped += " " + std::to_string(shards) + "->" +
                 std::to_string(got.workers);
    } else {
      EXPECT_EQ(got.workers, shards) << label;
    }
  }
  if (!clamped.empty()) GTEST_SKIP() << "host clamped workers:" << clamped;
}

TEST(ShardDiff, FanInTreeByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {31ull, 32ull}) {
    scenario::ScenarioSpec spec = scenario::preset("fan_in");
    scenario::apply_scale(spec, "small");
    spec.tree_depth = 3;  // 1 + 4 + 16 switches: domains >> workers
    spec.arrival_rate = 8.0;
    spec.mean_hold = 2.0;
    spec.target_flows = 24;
    spec.seed = seed;
    shard_diff(run_sharded(spec, 1), spec,
               ("fan-in tree seed " + std::to_string(seed)).c_str());
  }
}

TEST(ShardDiff, OverloadedParkingLotByteIdenticalAcrossShardCounts) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;  // deterministic batch: exercises prepare()-time
  spec.target_flows = 24; // flow opening and sharded tracer pre-sizing
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.15;
  spec.p_predicted = 0.35;
  spec.seed = 33;

  const TracedRun ref = run_sharded(spec, 1);
  EXPECT_GT(ref.report.net_drops, 0u) << "parking lot never overloaded";
  shard_diff(ref, spec, "overloaded parking lot");
}

TEST(ShardDiff, MeshWithFailuresByteIdenticalAcrossShardCounts) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 12.0;
  spec.seed = 36;  // 7 link-downs: reroutes, degrades, orphans AND in-flight
                   // packets caught on failing links, all in one run

  const TracedRun ref = run_sharded(spec, 1);
  EXPECT_GT(ref.report.flows_rerouted + ref.report.flows_degraded, 0u)
      << "failures never disturbed an admitted flow";
  EXPECT_GT(ref.report.failed_link_drops, 0u)
      << "no packet was ever caught on a failing link";
  shard_diff(ref, spec, "mesh with failures");
}

TEST(ShardDiff, ChaosFaultPlaneByteIdenticalAcrossShardCounts) {
  // Crashes, brown-outs, transient loss and flapping all at once, on the
  // sharded engine: every fault event lands on a lookahead-window barrier
  // (ctl grid), so shard counts {1, 2, 3, 4} must agree
  // byte-for-byte — traces, decisions, fault counters and both new drop
  // buckets.  The invariant monitor audits throughout and must stay clean.
  scenario::ScenarioSpec spec = scenario::preset("chaos");
  spec.run_seconds = 20.0;  // enough for every fault family at test speed
  spec.seed = 40;  // 3 crashes, 12 brownouts, 6 loss episodes in 20 s

  const TracedRun ref = run_sharded(spec, 1);
  const scenario::ScenarioReport& r = ref.report;
  EXPECT_GT(r.nodes_crashed, 0u) << "no switch ever crashed";
  EXPECT_GT(r.brownouts, 0u) << "no brown-out ever started";
  EXPECT_GT(r.loss_episodes, 0u) << "no loss episode ever started";
  EXPECT_GT(r.node_failure_drops + r.fault_drops, 0u)
      << "faults never destroyed a packet";
  EXPECT_EQ(r.invariant_violations, 0u) << "the monitor flagged the run";
  shard_diff(ref, spec, "chaos fault plane");
}

TEST(ShardDiff, CcMixWithBinaryFeedbackByteIdenticalAcrossShardCounts) {
  // Responsive best-effort flows (reno/bbr/rack round-robin) under the
  // DEC-TR-506 feedback loop, with guaranteed and predicted classes
  // alongside: data and ACK streams cross domain boundaries in both
  // directions, so shard-count invariance now covers the transport
  // timers (pacing, RTO, reorder) and the mark/echo/backoff counters.
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;
  spec.target_flows = 18;
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;
  spec.cc = scenario::CcKind::kMix;
  spec.binary_feedback = true;
  spec.seed = 41;

  const TracedRun ref = run_sharded(spec, 1);
  EXPECT_GT(ref.report.cc_flows, 2u) << "mix never attached all three stacks";
  EXPECT_GT(ref.report.cc_marks, 0u) << "the lot never marked a datagram";
  EXPECT_GT(ref.report.cc_echoes, 0u) << "no mark was ever echoed";
  shard_diff(ref, spec, "cc mix with binary feedback");
}

TEST(ShardDiff, ClassicAndShardedAreDistinctReferences) {
  // shards=0 (classic, zero propagation delay) and shards>=1 (per-hop
  // link latency) are DIFFERENT deterministic models by design; this
  // pins that the sharded path actually took effect (trace present,
  // delays shifted) rather than silently falling back to classic.
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 8.0;
  spec.seed = 36;

  scenario::ScenarioRunner classic{[&] {
    auto s = spec;
    s.shards = 0;
    return s;
  }()};
  const scenario::ScenarioReport classic_report = classic.run();
  ASSERT_FALSE(classic.net().sharded());
  EXPECT_EQ(classic.engine(), nullptr);

  scenario::ScenarioRunner sharded{[&] {
    auto s = spec;
    s.shards = 2;
    return s;
  }()};
  const scenario::ScenarioReport sharded_report = sharded.run();
  ASSERT_TRUE(sharded.net().sharded());
  ASSERT_NE(sharded.engine(), nullptr);
  EXPECT_GT(sharded.engine()->rounds(), 0u);
  EXPECT_GT(sharded_report.delivered, 0u);
  EXPECT_GT(classic_report.delivered, 0u);
}

}  // namespace
}  // namespace ispn
