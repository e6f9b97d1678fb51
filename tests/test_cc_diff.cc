// Differential determinism for the pluggable congestion-control stacks.
//
// The contract: a responsive (TCP-driven) scenario is a function of the
// SPEC alone.  For every CC stack {reno, bbr, rack} the whole run — the
// packet trace, the admission decision log, every report counter
// (including the feedback marks, echoes and backoffs), the per-class
// statistics, link utilisation and the per-flow outcome table, compared
// by expect_same_run (scenario_test_util.h) — must be byte-identical
// across OrderBackend {heap, calendar} and shard counts.  As everywhere
// else in this repo, shards=0 (classic, zero propagation delay) and
// shards>=1 (per-hop link latency) are distinct deterministic references;
// within each reference class every combination must agree bit-for-bit,
// doubles compared with ==.
//
// Two seeded workloads per stack: a dumbbell (2-switch chain, the
// canonical shared bottleneck) and an overloaded parking lot (drops =>
// retransmissions, recovery, reorder timers).  Binary feedback is on
// everywhere so the mark/echo/backoff loop is part of the pinned surface.

#include <gtest/gtest.h>

#include <string>

#include "scenario_test_util.h"

namespace ispn {
namespace {

using scenario_test::TracedRun;

TracedRun run_cc(scenario::ScenarioSpec spec, int shards,
                 sched::OrderBackend order_backend) {
  spec.shards = shards;
  spec.order_backend = order_backend;
  return scenario_test::traced_run(std::move(spec));
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
  const TracedRun ref = run_cc(spec, 0, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  EXPECT_GT(ref.report.cc_flows, 0u)
      << label << ": no responsive flow attached";
  EXPECT_GT(ref.report.tcp_segments, 0u) << label;

  scenario_test::expect_same_run(
      ref, run_cc(spec, 0, sched::OrderBackend::kCalendar),
      label + " under calendar-order");
}

/// shards>=1: the sharded reference, crossed over worker counts (all
/// mutually byte-identical).
void sharded_diff(const scenario::ScenarioSpec& spec,
                  const std::string& label) {
  const TracedRun ref = run_cc(spec, 1, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.trace.size(), 500u)
      << label << ": workload too small to prove anything";
  EXPECT_GT(ref.report.cc_flows, 0u)
      << label << ": no responsive flow attached";

  for (const int shards : {2, 4}) {
    scenario_test::expect_same_run(
        ref, run_cc(spec, shards, sched::OrderBackend::kHeap),
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
  const TracedRun reno = run_cc(dumbbell_spec(scenario::CcKind::kReno, 101),
                                0, sched::OrderBackend::kHeap);
  const TracedRun bbr = run_cc(dumbbell_spec(scenario::CcKind::kBbr, 101), 0,
                               sched::OrderBackend::kHeap);
  const TracedRun rack = run_cc(dumbbell_spec(scenario::CcKind::kRack, 101),
                                0, sched::OrderBackend::kHeap);
  EXPECT_TRUE(reno.trace.size() != bbr.trace.size() ||
              reno.report.tcp_segments != bbr.report.tcp_segments ||
              reno.report.events != bbr.report.events)
      << "reno and bbr produced identical runs";
  EXPECT_TRUE(rack.trace.size() != bbr.trace.size() ||
              rack.report.tcp_segments != bbr.report.tcp_segments ||
              rack.report.events != bbr.report.events)
      << "rack and bbr produced identical runs";
}

}  // namespace
}  // namespace ispn
