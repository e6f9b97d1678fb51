// Golden-trace regression suite for the scenario layer.
//
// Extends the queue-level differential harnesses up the stack: a WHOLE
// scenario — fabric generation, live measurement-based admission, flow
// churn, per-hop entry/exit traffic — must be byte-identical across every
// virtual-time ordering backend (heap / calendar queue / auto).  Each
// seeded scenario runs under all of them and is compared against the
// kHeap reference through expect_same_run (scenario_test_util.h): the full
// PacketTracer record stream, the decision hash and end time, every report
// counter in kReportCounters (ledger, admission, failure, fault,
// responsive and lookup-cache counters), the per-class delay statistics,
// every link's utilisation and every per-flow outcome.
//
// Comparing configurations against each other cannot catch a change that
// shifts every configuration at once, so each scenario's reference run is
// also pinned to constants: decision hash, event count, deliveries and
// trace hash.  A deliberate behaviour change re-pins them in its own diff.
//
// When a divergence appears, test_event_backend_diff /
// test_order_backend_diff localise it to a layer.

#include <gtest/gtest.h>

#include <string>

#include "scenario_test_util.h"

namespace ispn {
namespace {

using scenario_test::TracedRun;

TracedRun run_one(scenario::ScenarioSpec spec,
                  sched::OrderBackend order_backend) {
  spec.order_backend = order_backend;
  return scenario_test::traced_run(std::move(spec));
}

/// Reference-run values pinned across commits.
struct Pinned {
  std::uint64_t decision_hash;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t trace_hash;
};

/// Checks the kHeap reference run against `pinned` and every other order
/// backend against it; returns the reference report.
scenario::ScenarioReport golden(const scenario::ScenarioSpec& spec, const char* label,
                 const Pinned& pinned) {
  TracedRun ref = run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.trace.size(), 500u) << label << ": workload too small to "
                                       "prove anything";
  EXPECT_EQ(ref.report.decision_hash(), pinned.decision_hash) << label;
  EXPECT_EQ(ref.report.events, pinned.events) << label;
  EXPECT_EQ(ref.report.delivered, pinned.delivered) << label;
  EXPECT_EQ(scenario_test::hash_trace(ref.trace), pinned.trace_hash) << label;
  struct Combo {
    sched::OrderBackend order;
    const char* name;
  };
  const Combo combos[] = {
      {sched::OrderBackend::kCalendar, "calendar"},
      {sched::OrderBackend::kAuto, "auto"},
  };
  for (const Combo& combo : combos) {
    scenario_test::expect_same_run(
        ref, run_one(spec, combo.order),
        std::string(label) + " under " + combo.name);
  }
  return std::move(ref.report);
}

// --- the golden scenarios -------------------------------------------------

TEST(ScenarioGolden, FanInTreeByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_width = 4;
  spec.arrival_rate = 6.0;
  spec.mean_hold = 2.0;
  spec.seed = 11;
  golden(spec, "fan-in tree",
         {0x494cb9aba3513ff0ull, 5598, 2740, 0xd2a062da1973c16aull});
}

TEST(ScenarioGolden, OverloadedParkingLotByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  // Deliberate overload so the golden trace covers drops and pushout.
  spec.arrival_rate = 0;  // deterministic batch
  spec.target_flows = 24;
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.15;
  spec.p_predicted = 0.35;
  spec.seed = 12;

  const scenario::ScenarioReport ref =
      golden(spec, "overloaded parking lot",
             {0xdcb898f28a5a143full, 28375, 10482, 0x6a33a3491a7aef33ull});
  // The reference run must actually drop (the trace would be vacuous
  // otherwise).
  EXPECT_GT(ref.net_drops, 0u) << "parking lot never overloaded";
}

TEST(ScenarioGolden, AdmissionChurnChainByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  scenario::apply_scale(spec, "small");
  spec.seed = 13;

  const scenario::ScenarioReport ref =
      golden(spec, "admission churn chain",
             {0x05d53658647aaa9bull, 15104, 5817, 0x58a3ffb93eec16a8ull});
  EXPECT_GT(ref.flows_rejected, 0u) << "churn never exercised rejection";
}

TEST(ScenarioGolden, MeshWithFailuresByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 20.0;
  spec.seed = 14;

  const scenario::ScenarioReport ref =
      golden(spec, "mesh with failures",
             {0x838745ff56f99e8dull, 109116, 41503, 0x462c3ae8bd0cc1c9ull});
  EXPECT_GT(ref.links_failed, 1u) << "schedule produced <2 failures";
  EXPECT_GT(ref.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_GT(ref.failed_link_drops, 0u)
      << "no packet was ever caught on a failing link";
}

TEST(ScenarioGolden, ChaosFaultPlaneByteIdenticalAcrossBackends) {
  // The full fault plane at once: switch crashes, capacity brown-outs,
  // transient loss episodes, link flapping, degrade-to-datagram shedding
  // and backoff-driven re-admission, with the invariant monitor auditing
  // throughout.  Every fault event is drawn at prepare() and quantized to
  // the control grid, so the whole run — including both new drop buckets
  // and every fault counter — must stay byte-identical across backends.
  scenario::ScenarioSpec spec = scenario::preset("chaos");
  spec.seed = 17;

  const scenario::ScenarioReport ref =
      golden(spec, "chaos fault plane",
             {0xe766e89029430ba2ull, 139347, 52636, 0x13f3f0b143719326ull});
  EXPECT_GT(ref.nodes_crashed, 0u) << "no switch ever crashed";
  EXPECT_GT(ref.brownouts, 0u) << "no brown-out ever started";
  EXPECT_GT(ref.loss_episodes, 0u) << "no loss episode ever started";
  EXPECT_GT(ref.node_failure_drops, 0u)
      << "no packet was ever caught in a crashing switch";
  EXPECT_GT(ref.fault_drops, 0u) << "transient loss never destroyed a packet";
  EXPECT_GT(ref.restore_attempts, 0u) << "re-admission backoff never fired";
  EXPECT_EQ(ref.invariant_violations, 0u) << "the monitor flagged the run";
}

TEST(ScenarioGolden, CcMixWithBinaryFeedbackByteIdenticalAcrossBackends) {
  // All three service classes live at once, with the best-effort flows
  // driven by a round-robin mix of the reno/bbr/rack stacks and the
  // DEC-TR-506 feedback loop marking at the bottleneneck's datagram
  // class.  The responsive counters (marks, echoes, backoffs, segment
  // and retransmit totals) join the golden contract.
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.arrival_rate = 0;  // deterministic batch
  spec.target_flows = 18;
  spec.avg_rate_pps = 150.0;
  spec.source = scenario::SourceKind::kPoisson;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.3;
  spec.cc = scenario::CcKind::kMix;
  spec.binary_feedback = true;
  spec.seed = 18;

  const scenario::ScenarioReport ref =
      golden(spec, "cc mix with binary feedback",
             {0xe2f5c91a1b2245a0ull, 44572, 26561, 0x597ffed834ad5500ull});
  EXPECT_GT(ref.cc_flows, 2u) << "mix never attached all three stacks";
  EXPECT_GT(ref.cc_marks, 0u) << "the bottleneck never marked";
  EXPECT_GT(ref.cc_echoes, 0u) << "no mark was ever echoed";
  EXPECT_GT(ref.tcp_segments, 0u);
}

TEST(ScenarioGolden, ShardedFanInByteIdenticalAcrossBackends) {
  // The sharded execution model (per-switch domains, conservative
  // lookahead windows) is its own deterministic reference: the golden
  // invariant must hold across event/order backends there too.  Shard-
  // count invariance itself is test_shard_diff's job; here shards=2
  // pins the sharded path against backend variation.
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_depth = 3;
  spec.arrival_rate = 6.0;
  spec.mean_hold = 2.0;
  spec.shards = 2;
  spec.seed = 16;
  golden(spec, "sharded fan-in tree",
         {0x3d0a7c16360bfaa4ull, 6266, 1240, 0xc894458f313e5388ull});
}

TEST(ScenarioGolden, ExplicitFailureSchedulePreemptPolicy) {
  // Two explicit overlapping outages on the center switch's links, with
  // preempt (no degrade): refused re-offers tear flows down, and the
  // decision log must still agree byte-for-byte across backends.  The
  // chosen links cannot partition the 3x3 mesh, so the acceptance
  // invariant holds exactly: every admitted flow ends re-admitted,
  // degraded or preempted — never orphaned.
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 16.0;
  spec.link_failure_rate = 0;  // explicit schedule only
  spec.reroute_policy = scenario::ReroutePolicy::kPreempt;
  spec.seed = 15;
  // Node ids: switches and hosts alternate in creation order; switch
  // (r,c) of the 3x3 mesh is node 2*(3r+c).
  spec.link_failures.push_back({2, 8, 3.0, 9.0});    // (0,1)<->(1,1)
  spec.link_failures.push_back({6, 8, 5.0, -1.0});   // (1,0)<->(1,1)
  spec.validate();

  const scenario::ScenarioReport ref =
      golden(spec, "explicit failures, preempt policy",
             {0x1ff6b086e45ecdc7ull, 59622, 23190, 0xa7791c8c1f6d7f31ull});
  EXPECT_EQ(ref.links_failed, 2u);
  EXPECT_GT(ref.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_EQ(ref.flows_orphaned, 0u)
      << "non-partitioning failures orphaned a flow";
}

}  // namespace
}  // namespace ispn
