// Hierarchical (two-level aggregate) scheduling suite.
//
// UnifiedScheduler::Config::hierarchical collapses predicted classes and
// the datagram aggregate into bounded per-class inner queues under the
// outer WFQ, so per-link scheduler state stops scaling with flow count.
// The contract tested here:
//
//   1. Hierarchical mode preserves the invariants that define the flat
//      path: packet conservation, delivery in every service class, and —
//      because guaranteed flows keep their individual WFQ slots in both
//      modes — the Parekh–Gallager bound for every admitted guaranteed
//      flow.
//   2. The knob changes scheduling only: the offered workload (flow
//      arrival schedule, generated packets) is identical flat vs
//      hierarchical.
//
// Byte-identity of hierarchical runs — the packet trace and every counter
// in kReportCounters, the flow-locality cache counters included — is
// checked across shard counts by test_shard_diff's fan-in tree, which
// runs in both modes.

#include <gtest/gtest.h>

#include "scenario/runner.h"

namespace ispn {
namespace {

/// Fan-in tree with the paper's full service mix under churn — enough
/// traffic in all three classes to exercise both scheduler shapes.
scenario::ScenarioSpec mixed_spec() {
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_width = 4;
  spec.arrival_rate = 6.0;
  spec.mean_hold = 2.0;
  spec.target_flows = 24;
  spec.p_guaranteed = 0.3;
  spec.p_predicted = 0.4;
  spec.seed = 21;
  return spec;
}

scenario::ScenarioReport run_spec(scenario::ScenarioSpec spec,
                                  bool hierarchical) {
  spec.hierarchical = hierarchical;
  scenario::ScenarioRunner runner(std::move(spec));
  return runner.run();
}

TEST(Hierarchical, ConservesAndDeliversEveryClass) {
  const auto report = run_spec(mixed_spec(), /*hierarchical=*/true);
  ASSERT_TRUE(report.conserved());
  EXPECT_GT(report.delivered, 0u);
  for (std::size_t c = 0; c < report.classes.size(); ++c) {
    EXPECT_GT(report.classes[c].delivered, 0u)
        << "service class " << c << " starved under hierarchical mode";
  }
  // The per-packet route cache saw the traffic and mostly hit: a fan-in
  // switch forwards everything toward the root, so the destination stream
  // has strong locality.  Deliveries themselves are label-switched — the
  // runner stamps each flow's sink slot at setup, so every delivery takes
  // the validated fast path rather than the cached table lookup.
  EXPECT_GT(report.route_cache_hits, 0u);
  EXPECT_GE(report.sink_label_hits, report.delivered);
  EXPECT_GE(report.route_cache_hits + report.route_cache_misses,
            report.delivered)
      << "every delivered packet crossed at least one switch lookup";
}

TEST(Hierarchical, GuaranteedPgBoundsHoldInBothModes) {
  for (const bool hierarchical : {false, true}) {
    const auto report = run_spec(mixed_spec(), hierarchical);
    ASSERT_TRUE(report.conserved()) << "hierarchical=" << hierarchical;
    std::size_t checked = 0;
    for (const auto& f : report.flows) {
      if (f.service != net::ServiceClass::kGuaranteed || !f.admitted ||
          f.delivered == 0) {
        continue;
      }
      ++checked;
      ASSERT_GT(f.bound, 0.0);
      EXPECT_LE(f.max_delay, f.bound)
          << "hierarchical=" << hierarchical << " flow " << f.flow << " ("
          << f.hops << " hops): guaranteed delay " << f.max_delay * 1e3
          << " ms exceeded its a-priori bound " << f.bound * 1e3 << " ms";
    }
    EXPECT_GT(checked, 0u)
        << "hierarchical=" << hierarchical
        << ": no guaranteed flow ever delivered";
  }
}

TEST(Hierarchical, KnobChangesSchedulingOnly) {
  const auto flat = run_spec(mixed_spec(), /*hierarchical=*/false);
  const auto hier = run_spec(mixed_spec(), /*hierarchical=*/true);
  ASSERT_TRUE(flat.conserved());
  ASSERT_TRUE(hier.conserved());
  // The offered workload is scheduler-independent: same arrival schedule,
  // same flow population, same generated packet count.
  EXPECT_EQ(flat.flows_offered, hier.flows_offered);
  EXPECT_EQ(flat.generated, hier.generated);
  EXPECT_GT(flat.delivered, 0u);
  EXPECT_GT(hier.delivered, 0u);
}

}  // namespace
}  // namespace ispn
