// Differential determinism for the pluggable congestion-control stacks.
//
// The contract: a responsive (TCP-driven) scenario is a function of the
// SPEC alone.  For every CC stack {reno, bbr, rack} the packet trace, the
// admission decision log, the conservation ledger, the per-flow outcome
// table AND the new feedback counters (marks, echoes, backoffs) must be
// byte-identical across OrderBackend {heap, calendar} and shard counts.  As everywhere else in this repo, shards=0
// (classic, zero propagation delay) and shards>=1 (per-hop link latency)
// are distinct deterministic references; within each reference class every
// combination must agree bit-for-bit, doubles compared with ==.
//
// Two seeded workloads per stack: a dumbbell (2-switch chain, the
// canonical shared bottleneck) and an overloaded parking lot (drops =>
// retransmissions, recovery, reorder timers).  Binary feedback is on
// everywhere so the mark/echo/backoff loop is part of the pinned surface.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/tracer.h"
#include "scenario/runner.h"

namespace ispn {
namespace {

struct CcRun {
  std::vector<net::PacketTracer::Record> trace;
  std::uint64_t decision_hash = 0;
  std::uint64_t events = 0;
  // Conservation ledger.
  std::uint64_t generated = 0, source_drops = 0, injected = 0, delivered = 0,
                net_drops = 0, queued_end = 0, unclaimed = 0;
  // Responsive-plane counters.
  std::uint64_t cc_flows = 0, cc_marks = 0, cc_mark_samples = 0, cc_echoes = 0,
                cc_backoffs = 0;
  std::uint64_t tcp_segments = 0, tcp_delivered = 0, tcp_retransmits = 0,
                tcp_timeouts = 0, tcp_reorder_timeouts = 0;
  std::vector<scenario::FlowOutcome> flows;
};

CcRun run_cc(scenario::ScenarioSpec spec, int shards,
             sched::OrderBackend order_backend) {
  spec.shards = shards;
  spec.order_backend = order_backend;
  scenario::ScenarioRunner runner(std::move(spec));
  net::PacketTracer tracer(1u << 22);
  runner.set_tracer(&tracer);
  runner.prepare();
  tracer.attach(runner.net());
  const scenario::ScenarioReport report = runner.run();
  tracer.finalize();

  EXPECT_FALSE(tracer.truncated());
  EXPECT_TRUE(report.conserved());
  CcRun out;
  out.trace = tracer.records();
  out.decision_hash = report.decision_hash();
  out.events = report.events;
  out.generated = report.generated;
  out.source_drops = report.source_drops;
  out.injected = report.injected;
  out.delivered = report.delivered;
  out.net_drops = report.net_drops;
  out.queued_end = report.queued_end;
  out.unclaimed = report.unclaimed;
  out.cc_flows = report.cc_flows;
  out.cc_marks = report.cc_marks;
  out.cc_mark_samples = report.cc_mark_samples;
  out.cc_echoes = report.cc_echoes;
  out.cc_backoffs = report.cc_backoffs;
  out.tcp_segments = report.tcp_segments;
  out.tcp_delivered = report.tcp_delivered;
  out.tcp_retransmits = report.tcp_retransmits;
  out.tcp_timeouts = report.tcp_timeouts;
  out.tcp_reorder_timeouts = report.tcp_reorder_timeouts;
  out.flows = report.flows;
  return out;
}

void expect_identical(const CcRun& ref, const CcRun& got,
                      const std::string& what) {
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << what;
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    const auto& a = ref.trace[i];
    const auto& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.event == b.event && a.flow == b.flow &&
                a.seq == b.seq && a.node == b.node &&
                a.queueing_delay == b.queueing_delay &&
                a.jitter_offset == b.jitter_offset)
        << what << ": first divergence at record " << i << " (t=" << a.time
        << " flow " << a.flow << " seq " << a.seq << ")";
  }
  EXPECT_EQ(ref.decision_hash, got.decision_hash) << what;
  EXPECT_EQ(ref.events, got.events) << what;
  EXPECT_EQ(ref.generated, got.generated) << what;
  EXPECT_EQ(ref.source_drops, got.source_drops) << what;
  EXPECT_EQ(ref.injected, got.injected) << what;
  EXPECT_EQ(ref.delivered, got.delivered) << what;
  EXPECT_EQ(ref.net_drops, got.net_drops) << what;
  EXPECT_EQ(ref.queued_end, got.queued_end) << what;
  EXPECT_EQ(ref.unclaimed, got.unclaimed) << what;
  EXPECT_EQ(ref.cc_flows, got.cc_flows) << what;
  EXPECT_EQ(ref.cc_marks, got.cc_marks) << what;
  EXPECT_EQ(ref.cc_mark_samples, got.cc_mark_samples) << what;
  EXPECT_EQ(ref.cc_echoes, got.cc_echoes) << what;
  EXPECT_EQ(ref.cc_backoffs, got.cc_backoffs) << what;
  EXPECT_EQ(ref.tcp_segments, got.tcp_segments) << what;
  EXPECT_EQ(ref.tcp_delivered, got.tcp_delivered) << what;
  EXPECT_EQ(ref.tcp_retransmits, got.tcp_retransmits) << what;
  EXPECT_EQ(ref.tcp_timeouts, got.tcp_timeouts) << what;
  EXPECT_EQ(ref.tcp_reorder_timeouts, got.tcp_reorder_timeouts) << what;

  ASSERT_EQ(ref.flows.size(), got.flows.size()) << what;
  for (std::size_t i = 0; i < ref.flows.size(); ++i) {
    const auto& a = ref.flows[i];
    const auto& b = got.flows[i];
    EXPECT_EQ(a.flow, b.flow) << what;
    EXPECT_EQ(a.service, b.service) << what;
    EXPECT_EQ(a.admitted, b.admitted) << what;
    EXPECT_EQ(a.delivered, b.delivered) << what << " flow " << a.flow;
    EXPECT_EQ(a.max_delay, b.max_delay) << what << " flow " << a.flow;
    EXPECT_EQ(a.bound, b.bound) << what << " flow " << a.flow;
  }
}

scenario::ScenarioSpec dumbbell_spec(scenario::CcKind cc, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("chain");
  spec.chain_switches = 2;  // the canonical dumbbell bottleneck
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;  // deterministic batch admission
  spec.target_flows = 12;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;  // half the flows are responsive datagram
  spec.cc = cc;
  spec.binary_feedback = true;
  spec.seed = seed;
  return spec;
}

scenario::ScenarioSpec parking_spec(scenario::CcKind cc, std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;
  spec.target_flows = 16;
  spec.p_guaranteed = 0.15;
  spec.p_predicted = 0.25;
  spec.avg_rate_pps = 150.0;  // open-loop classes keep the lot loaded
  spec.cc = cc;
  spec.binary_feedback = true;
  spec.seed = seed;
  return spec;
}

constexpr scenario::CcKind kStacks[] = {
    scenario::CcKind::kReno, scenario::CcKind::kBbr, scenario::CcKind::kRack};

/// shards=0: the classic single-clock reference, crossed over both
/// ordering backends.
void classic_diff(const scenario::ScenarioSpec& spec, const std::string& label) {
  const CcRun ref = run_cc(spec, 0, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  EXPECT_GT(ref.cc_flows, 0u) << label << ": no responsive flow attached";
  EXPECT_GT(ref.tcp_segments, 0u) << label;

  expect_identical(ref, run_cc(spec, 0, sched::OrderBackend::kCalendar),
                   label + " under calendar-order");
}

/// shards>=1: the sharded reference, crossed over worker counts (all
/// mutually byte-identical).
void sharded_diff(const scenario::ScenarioSpec& spec,
                  const std::string& label) {
  const CcRun ref = run_cc(spec, 1, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  EXPECT_GT(ref.cc_flows, 0u) << label << ": no responsive flow attached";

  for (const int shards : {2, 4}) {
    expect_identical(ref, run_cc(spec, shards, sched::OrderBackend::kHeap),
                     label + " under shards = " + std::to_string(shards));
  }
}

TEST(CcDiff, DumbbellClassicBackendsAgreePerStack) {
  for (const auto cc : kStacks) {
    for (const std::uint64_t seed : {101ull, 102ull}) {
      classic_diff(dumbbell_spec(cc, seed),
                   std::string("dumbbell cc=") + scenario::to_string(cc) +
                       " seed " + std::to_string(seed));
    }
  }
}

TEST(CcDiff, DumbbellShardedAgreesPerStack) {
  for (const auto cc : kStacks) {
    sharded_diff(dumbbell_spec(cc, 103),
                 std::string("dumbbell cc=") + scenario::to_string(cc) +
                     " seed 103");
  }
}

TEST(CcDiff, ParkingLotClassicBackendsAgreePerStack) {
  for (const auto cc : kStacks) {
    for (const std::uint64_t seed : {201ull, 202ull}) {
      classic_diff(parking_spec(cc, seed),
                   std::string("parking lot cc=") + scenario::to_string(cc) +
                       " seed " + std::to_string(seed));
    }
  }
}

TEST(CcDiff, ParkingLotShardedAgreesPerStack) {
  for (const auto cc : kStacks) {
    sharded_diff(parking_spec(cc, 203),
                 std::string("parking lot cc=") + scenario::to_string(cc) +
                     " seed 203");
  }
}

TEST(CcDiff, MixedStacksAgreeAcrossEverything) {
  // cc=mix assigns reno/bbr/rack round-robin by flow id: all three stacks
  // interleave on the same bottleneck in one run.
  for (const std::uint64_t seed : {301ull, 302ull}) {
    const auto spec = dumbbell_spec(scenario::CcKind::kMix, seed);
    classic_diff(spec, "dumbbell cc=mix seed " + std::to_string(seed));
  }
  sharded_diff(parking_spec(scenario::CcKind::kMix, 303),
               "parking lot cc=mix seed 303");
}

TEST(CcDiff, StacksActuallyDiffer) {
  // Sanity against a stub: the three stacks must produce DIFFERENT traces
  // on the same seed (else the dispatch is dead and the suite proves
  // nothing).  Compared via segment counts + echo counts, which diverge
  // as soon as pacing/loss-detection behaviour differs.
  const CcRun reno = run_cc(dumbbell_spec(scenario::CcKind::kReno, 101), 0,
                            sched::OrderBackend::kHeap);
  const CcRun bbr = run_cc(dumbbell_spec(scenario::CcKind::kBbr, 101), 0,
                           sched::OrderBackend::kHeap);
  const CcRun rack = run_cc(dumbbell_spec(scenario::CcKind::kRack, 101), 0,
                            sched::OrderBackend::kHeap);
  EXPECT_TRUE(reno.trace.size() != bbr.trace.size() ||
              reno.tcp_segments != bbr.tcp_segments ||
              reno.events != bbr.events)
      << "reno and bbr produced identical runs";
  EXPECT_TRUE(rack.trace.size() != bbr.trace.size() ||
              rack.tcp_segments != bbr.tcp_segments ||
              rack.events != bbr.events)
      << "rack and bbr produced identical runs";
}

}  // namespace
}  // namespace ispn
