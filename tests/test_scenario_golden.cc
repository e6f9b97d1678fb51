// Golden-trace regression suite for the scenario layer.
//
// Extends the queue-level differential harnesses up the stack: a WHOLE
// scenario — fabric generation, live measurement-based admission, flow
// churn, per-hop entry/exit traffic — must be byte-identical across every
// virtual-time ordering backend (heap / calendar queue / auto).  Each
// seeded scenario runs under all of them; the full PacketTracer record
// stream (every transmit, drop, delivery with bit-exact timestamps and
// delay fields) and the complete admission decision log are hashed and
// compared against the kHeap reference, along with every conservation
// counter and the simulator's event count.
//
// Comparing configurations against each other cannot catch a change that
// shifts every configuration at once, so each scenario's reference run is
// also pinned to constants: decision hash, event count, deliveries and
// trace hash.  A deliberate behaviour change re-pins them in its own diff.
//
// Hashes rather than full record diffs keep failure output small; when a
// divergence appears, test_event_backend_diff / test_order_backend_diff
// localise it to a layer.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "net/tracer.h"
#include "scenario/runner.h"

namespace ispn {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_trace(const std::vector<net::PacketTracer::Record>& recs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : recs) {
    h = fnv1a(h, &r.time, sizeof r.time);
    const auto event = static_cast<std::uint8_t>(r.event);
    h = fnv1a(h, &event, sizeof event);
    h = fnv1a(h, &r.flow, sizeof r.flow);
    h = fnv1a(h, &r.seq, sizeof r.seq);
    h = fnv1a(h, &r.node, sizeof r.node);
    h = fnv1a(h, &r.queueing_delay, sizeof r.queueing_delay);
    h = fnv1a(h, &r.jitter_offset, sizeof r.jitter_offset);
  }
  return h;
}

struct GoldenRun {
  std::uint64_t trace_hash = 0;
  std::uint64_t decision_hash = 0;
  std::size_t records = 0;
  std::size_t drops = 0;
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t flows_admitted = 0;
  std::uint64_t flows_rejected = 0;
  std::uint64_t flows_preempted = 0;
  std::uint64_t links_failed = 0;
  std::uint64_t flows_rerouted = 0;
  std::uint64_t flows_degraded = 0;
  std::uint64_t flows_orphaned = 0;
  std::uint64_t failed_link_drops = 0;
  // Fault-plane counters (PR 9): crash/brown-out/loss activity and the two
  // ledger buckets they drain into are part of the golden contract too.
  std::uint64_t node_failure_drops = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t nodes_crashed = 0;
  std::uint64_t nodes_recovered = 0;
  std::uint64_t brownouts = 0;
  std::uint64_t loss_episodes = 0;
  std::uint64_t flows_restored = 0;
  std::uint64_t restore_attempts = 0;
  std::uint64_t invariant_violations = 0;
  // Responsive-traffic counters (PR 10): the congestion-control stacks and
  // the DEC-TR-506 mark/echo/backoff loop are golden surface too.
  std::uint64_t cc_flows = 0;
  std::uint64_t cc_marks = 0;
  std::uint64_t cc_mark_samples = 0;
  std::uint64_t cc_echoes = 0;
  std::uint64_t cc_backoffs = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_reorder_timeouts = 0;
};

GoldenRun run_one(scenario::ScenarioSpec spec,
                  sched::OrderBackend order_backend) {
  spec.order_backend = order_backend;
  scenario::ScenarioRunner runner(std::move(spec));
  net::PacketTracer tracer(1u << 22);
  runner.set_tracer(&tracer);
  runner.prepare();
  tracer.attach(runner.net());  // ports exist once the fabric is built
  const scenario::ScenarioReport report = runner.run();
  tracer.finalize();  // merge per-domain buffers (no-op on the classic path)

  EXPECT_FALSE(tracer.truncated());
  EXPECT_TRUE(report.conserved());
  GoldenRun out;
  out.trace_hash = hash_trace(tracer.records());
  out.decision_hash = report.decision_hash();
  out.records = tracer.records().size();
  out.drops = tracer.count(net::PacketTracer::Event::kDrop);
  out.events = report.events;
  out.generated = report.generated;
  out.delivered = report.delivered;
  out.net_drops = report.net_drops;
  out.flows_admitted = report.flows_admitted;
  out.flows_rejected = report.flows_rejected;
  out.flows_preempted = report.flows_preempted;
  out.links_failed = report.links_failed;
  out.flows_rerouted = report.flows_rerouted;
  out.flows_degraded = report.flows_degraded;
  out.flows_orphaned = report.flows_orphaned;
  out.failed_link_drops = report.failed_link_drops;
  out.node_failure_drops = report.node_failure_drops;
  out.fault_drops = report.fault_drops;
  out.nodes_crashed = report.nodes_crashed;
  out.nodes_recovered = report.nodes_recovered;
  out.brownouts = report.brownouts;
  out.loss_episodes = report.loss_episodes;
  out.flows_restored = report.flows_restored;
  out.restore_attempts = report.restore_attempts;
  out.invariant_violations = report.invariant_violations;
  out.cc_flows = report.cc_flows;
  out.cc_marks = report.cc_marks;
  out.cc_mark_samples = report.cc_mark_samples;
  out.cc_echoes = report.cc_echoes;
  out.cc_backoffs = report.cc_backoffs;
  out.tcp_segments = report.tcp_segments;
  out.tcp_retransmits = report.tcp_retransmits;
  out.tcp_timeouts = report.tcp_timeouts;
  out.tcp_reorder_timeouts = report.tcp_reorder_timeouts;
  return out;
}

void expect_equal(const GoldenRun& ref, const GoldenRun& got,
                  const std::string& what) {
  EXPECT_EQ(ref.records, got.records) << what;
  EXPECT_EQ(ref.trace_hash, got.trace_hash) << what;
  EXPECT_EQ(ref.decision_hash, got.decision_hash) << what;
  EXPECT_EQ(ref.events, got.events) << what;
  EXPECT_EQ(ref.generated, got.generated) << what;
  EXPECT_EQ(ref.delivered, got.delivered) << what;
  EXPECT_EQ(ref.net_drops, got.net_drops) << what;
  EXPECT_EQ(ref.flows_admitted, got.flows_admitted) << what;
  EXPECT_EQ(ref.flows_rejected, got.flows_rejected) << what;
  EXPECT_EQ(ref.flows_preempted, got.flows_preempted) << what;
  EXPECT_EQ(ref.links_failed, got.links_failed) << what;
  EXPECT_EQ(ref.flows_rerouted, got.flows_rerouted) << what;
  EXPECT_EQ(ref.flows_degraded, got.flows_degraded) << what;
  EXPECT_EQ(ref.flows_orphaned, got.flows_orphaned) << what;
  EXPECT_EQ(ref.failed_link_drops, got.failed_link_drops) << what;
  EXPECT_EQ(ref.node_failure_drops, got.node_failure_drops) << what;
  EXPECT_EQ(ref.fault_drops, got.fault_drops) << what;
  EXPECT_EQ(ref.nodes_crashed, got.nodes_crashed) << what;
  EXPECT_EQ(ref.nodes_recovered, got.nodes_recovered) << what;
  EXPECT_EQ(ref.brownouts, got.brownouts) << what;
  EXPECT_EQ(ref.loss_episodes, got.loss_episodes) << what;
  EXPECT_EQ(ref.flows_restored, got.flows_restored) << what;
  EXPECT_EQ(ref.restore_attempts, got.restore_attempts) << what;
  EXPECT_EQ(ref.invariant_violations, got.invariant_violations) << what;
  EXPECT_EQ(ref.cc_flows, got.cc_flows) << what;
  EXPECT_EQ(ref.cc_marks, got.cc_marks) << what;
  EXPECT_EQ(ref.cc_mark_samples, got.cc_mark_samples) << what;
  EXPECT_EQ(ref.cc_echoes, got.cc_echoes) << what;
  EXPECT_EQ(ref.cc_backoffs, got.cc_backoffs) << what;
  EXPECT_EQ(ref.tcp_segments, got.tcp_segments) << what;
  EXPECT_EQ(ref.tcp_retransmits, got.tcp_retransmits) << what;
  EXPECT_EQ(ref.tcp_timeouts, got.tcp_timeouts) << what;
  EXPECT_EQ(ref.tcp_reorder_timeouts, got.tcp_reorder_timeouts) << what;
}

/// Reference-run values pinned across commits.
struct Pinned {
  std::uint64_t decision_hash;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t trace_hash;
};

void golden(const scenario::ScenarioSpec& spec, const char* label,
            const Pinned& pinned) {
  const GoldenRun ref = run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.records, 500u) << label << ": workload too small to prove "
                                  "anything";
  EXPECT_EQ(ref.decision_hash, pinned.decision_hash) << label;
  EXPECT_EQ(ref.events, pinned.events) << label;
  EXPECT_EQ(ref.delivered, pinned.delivered) << label;
  EXPECT_EQ(ref.trace_hash, pinned.trace_hash) << label;
  struct Combo {
    sched::OrderBackend order;
    const char* name;
  };
  const Combo combos[] = {
      {sched::OrderBackend::kCalendar, "calendar"},
      {sched::OrderBackend::kAuto, "auto"},
  };
  for (const Combo& combo : combos) {
    const GoldenRun got = run_one(spec, combo.order);
    expect_equal(ref, got,
                 std::string(label) + " under " + combo.name);
  }
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

  // The reference run must actually drop (the trace would be vacuous
  // otherwise).
  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.drops, 0u) << "parking lot never overloaded";
  golden(spec, "overloaded parking lot",
         {0xdcb898f28a5a143full, 28375, 10482, 0x6a33a3491a7aef33ull});
}

TEST(ScenarioGolden, AdmissionChurnChainByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  scenario::apply_scale(spec, "small");
  spec.seed = 13;

  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.flows_rejected, 0u) << "churn never exercised rejection";
  golden(spec, "admission churn chain",
         {0x05d53658647aaa9bull, 15104, 5817, 0x58a3ffb93eec16a8ull});
}

TEST(ScenarioGolden, MeshWithFailuresByteIdenticalAcrossBackends) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 20.0;
  spec.seed = 14;

  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.links_failed, 1u) << "schedule produced <2 failures";
  EXPECT_GT(ref.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_GT(ref.failed_link_drops, 0u)
      << "no packet was ever caught on a failing link";
  golden(spec, "mesh with failures",
         {0x838745ff56f99e8dull, 109116, 41503, 0x462c3ae8bd0cc1c9ull});
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

  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.nodes_crashed, 0u) << "no switch ever crashed";
  EXPECT_GT(ref.brownouts, 0u) << "no brown-out ever started";
  EXPECT_GT(ref.loss_episodes, 0u) << "no loss episode ever started";
  EXPECT_GT(ref.node_failure_drops, 0u)
      << "no packet was ever caught in a crashing switch";
  EXPECT_GT(ref.fault_drops, 0u) << "transient loss never destroyed a packet";
  EXPECT_GT(ref.restore_attempts, 0u) << "re-admission backoff never fired";
  EXPECT_EQ(ref.invariant_violations, 0u) << "the monitor flagged the run";
  golden(spec, "chaos fault plane",
         {0xe766e89029430ba2ull, 139347, 52636, 0x13f3f0b143719326ull});
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

  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_GT(ref.cc_flows, 2u) << "mix never attached all three stacks";
  EXPECT_GT(ref.cc_marks, 0u) << "the bottleneck never marked";
  EXPECT_GT(ref.cc_echoes, 0u) << "no mark was ever echoed";
  EXPECT_GT(ref.tcp_segments, 0u);
  golden(spec, "cc mix with binary feedback",
         {0xe2f5c91a1b2245a0ull, 44572, 26561, 0x597ffed834ad5500ull});
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

  const GoldenRun ref =
      run_one(spec, sched::OrderBackend::kHeap);
  EXPECT_EQ(ref.links_failed, 2u);
  EXPECT_GT(ref.flows_rerouted, 0u) << "no flow ever rerouted";
  EXPECT_EQ(ref.flows_orphaned, 0u)
      << "non-partitioning failures orphaned a flow";
  golden(spec, "explicit failures, preempt policy",
         {0x1ff6b086e45ecdc7ull, 59622, 23190, 0xa7791c8c1f6d7f31ull});
}

}  // namespace
}  // namespace ispn
