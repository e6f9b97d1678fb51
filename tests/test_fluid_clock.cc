// The shared fluid GPS clock (sched/fluid_clock.h): exact piecewise-linear
// V(t), departure-epoch iteration, and flow 0 kept beside the heap (its
// in-place re-weighting and its place first at a shared departure epoch).

#include "sched/fluid_clock.h"

#include <gtest/gtest.h>

#include "sched/unified.h"
#include "sched/wfq.h"
#include "sched_test_util.h"

namespace ispn::sched {
namespace {

using sched_test::guaranteed_pkt;

// Link 1000 b/s throughout; one 1000-bit packet at weight w has fluid
// finish tag S + 1000/w.

TEST(FluidClock, FrozenWhileIdle) {
  FluidClock clock(1000.0);
  clock.advance(5.0);
  EXPECT_DOUBLE_EQ(clock.vtime(), 0.0);
  EXPECT_TRUE(clock.idle());
}

TEST(FluidClock, SingleFlowSlopeAndDeparture) {
  FluidClock clock(1000.0);
  clock.advance(0.0);
  const double f = clock.stamp(1, 0.0, 1000.0, 500.0, 1.0 / 500.0);
  EXPECT_DOUBLE_EQ(f, 2.0);  // 1000 bits / 500 = 2 virtual units
  EXPECT_TRUE(clock.backlogged(1));
  EXPECT_DOUBLE_EQ(clock.active_weight(), 500.0);

  // Slope C / Σφ = 1000/500 = 2 per second while flow 1 is backlogged.
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.vtime(), 1.0);

  // The flow departs the fluid system when V reaches its finish tag (t=1);
  // V freezes there because nothing else is backlogged.
  clock.advance(3.0);
  EXPECT_DOUBLE_EQ(clock.vtime(), 2.0);
  EXPECT_FALSE(clock.backlogged(1));
  EXPECT_DOUBLE_EQ(clock.active_weight(), 0.0);
}

TEST(FluidClock, DepartureEpochChangesSlope) {
  FluidClock clock(1000.0);
  clock.advance(0.0);
  // Flow 1 (φ=750) finishes at V=4/3; flow 2 (φ=250) at V=4.
  EXPECT_DOUBLE_EQ(clock.stamp(1, 0.0, 1000.0, 750.0, 1.0 / 750.0), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(clock.stamp(2, 0.0, 1000.0, 250.0, 1.0 / 250.0), 4.0);

  // Both backlogged: slope 1.  Flow 1 leaves at t=4/3; slope becomes 4.
  //   V(1.5) = 4/3 + 4·(1.5 − 4/3) = 2.
  clock.advance(1.5);
  EXPECT_NEAR(clock.vtime(), 2.0, 1e-12);
  EXPECT_FALSE(clock.backlogged(1));
  EXPECT_TRUE(clock.backlogged(2));

  // Flow 2 drains at t = 4/3 + (4 − 4/3)/4 = 2.
  clock.advance(2.0);
  EXPECT_NEAR(clock.vtime(), 4.0, 1e-12);
  EXPECT_TRUE(clock.idle());
}

TEST(FluidClock, StampStartsAtMaxOfVtimeAndLastFinish) {
  FluidClock clock(1000.0);
  clock.advance(0.0);
  const double f1 = clock.stamp(1, 0.0, 1000.0, 1000.0, 1e-3);
  EXPECT_DOUBLE_EQ(f1, 1.0);
  // Back-to-back packet: starts at the previous finish, not at V=0.
  const double f2 = clock.stamp(1, f1, 1000.0, 1000.0, 1e-3);
  EXPECT_DOUBLE_EQ(f2, 2.0);
  // After the backlog clears, a fresh arrival starts at V.
  clock.advance(10.0);
  const double f3 = clock.stamp(1, f2, 1000.0, 1000.0, 1e-3);
  EXPECT_DOUBLE_EQ(f3, 3.0);  // V froze at 2.0
}

// Re-weighting backlogged flow 0 (unified's μ − Σ r_α changing under
// admission) changes the V(t) slope from that instant.
TEST(FluidClock, Flow0ReweightChangesSlopeImmediately) {
  FluidClock clock(1000.0);
  clock.advance(0.0);
  EXPECT_DOUBLE_EQ(clock.stamp_flow0(0.0, 1000.0, 500.0, 1.0 / 500.0), 2.0);
  EXPECT_TRUE(clock.flow0_backlogged());
  clock.reweight_flow0(1000.0);  // flow 0 doubles its clock rate
  clock.advance(0.5);
  // Slope drops from 1000/500 = 2 to 1000/1000 = 1 → V(0.5) = 0.5.
  EXPECT_DOUBLE_EQ(clock.vtime(), 0.5);
  EXPECT_DOUBLE_EQ(clock.active_weight(), 1000.0);
}

TEST(FluidClock, ReweightOfIdleFlow0IsNoOp) {
  FluidClock clock(1000.0);
  clock.reweight_flow0(750.0);
  EXPECT_DOUBLE_EQ(clock.active_weight(), 0.0);
  // The next stamp carries whatever weight the caller passes.
  clock.advance(0.0);
  clock.stamp_flow0(0.0, 1000.0, 250.0, 1.0 / 250.0);
  EXPECT_DOUBLE_EQ(clock.active_weight(), 250.0);
}

// Flow 0 and heap flow 1 share a departure epoch while flow 2 stays
// backlogged.  Flow 0's weight leaves the sum first — its place as id 0
// when it lived in the heap — and the weights are chosen so the other
// order rounds differently, so the sum is checked bit for bit.
TEST(FluidClock, SharedDepartureEpochSubtractsFlow0First) {
  const double w0 = 0.3;
  const double w1 = 2 * w0;  // 1/w1 == (1/w0)/2 exactly: equal tags below
  const double w2 = 0.1;
  FluidClock clock(1.0);
  clock.advance(0.0);
  const double f0 = clock.stamp_flow0(0.0, 1.0, w0, 1.0 / w0);
  const double f1 = clock.stamp(1, 0.0, 2.0, w1, 1.0 / w1);
  const double f2 = clock.stamp(2, 0.0, 1.0, w2, 1.0 / w2);
  ASSERT_EQ(f0, f1);
  ASSERT_LT(f1, f2);
  const double sum = (w0 + w1) + w2;  // stamping order
  const double flow0_first = (sum - w0) - w1;
  ASSERT_NE(flow0_first, (sum - w1) - w0);  // the order is observable

  // The shared epoch is at t ~ 3.33 and flow 2 departs at t ~ 4.
  clock.advance(3.5);
  EXPECT_FALSE(clock.flow0_backlogged());
  EXPECT_FALSE(clock.backlogged(1));
  EXPECT_TRUE(clock.backlogged(2));
  EXPECT_EQ(clock.active_weight(), flow0_first);
}

TEST(FluidClock, RetireRemovesBackloggedFlow) {
  FluidClock clock(1000.0);
  clock.advance(0.0);
  clock.stamp(1, 0.0, 1000.0, 500.0, 1.0 / 500.0);
  clock.stamp(2, 0.0, 1000.0, 500.0, 1.0 / 500.0);
  clock.retire(1);
  EXPECT_FALSE(clock.backlogged(1));
  EXPECT_TRUE(clock.backlogged(2));
  EXPECT_DOUBLE_EQ(clock.active_weight(), 500.0);
  clock.retire(1);  // idempotent
  EXPECT_DOUBLE_EQ(clock.active_weight(), 500.0);
}

// Both WFQ-family schedulers now advance the *same* clock: a guaranteed-
// only workload must produce identical virtual-time trajectories in
// WfqScheduler and UnifiedScheduler (the seed's copies diverged only in
// flow-0 handling, which this workload never touches).
TEST(FluidClock, WfqAndUnifiedAgreeOnGuaranteedOnlyVtime) {
  WfqScheduler wfq(WfqScheduler::Config{1e6, 200, 1.0});
  UnifiedScheduler unified(UnifiedScheduler::Config{1e6, 200, 2});
  wfq.add_flow(1, 3e5);
  wfq.add_flow(2, 5e5);
  unified.add_guaranteed(1, 3e5);
  unified.add_guaranteed(2, 5e5);

  std::uint64_t seq = 0;
  for (double t : {0.0, 0.0, 0.001, 0.0015, 0.004, 0.02}) {
    const net::FlowId flow = (seq % 2 == 0) ? 1 : 2;
    wfq.enqueue(sched_test::pkt(flow, seq, t), t);
    unified.enqueue(guaranteed_pkt(flow, seq, t), t);
    ++seq;
    EXPECT_DOUBLE_EQ(wfq.virtual_time(t), unified.virtual_time(t));
  }
  for (double t : {0.05, 0.1, 1.0}) {
    EXPECT_DOUBLE_EQ(wfq.virtual_time(t), unified.virtual_time(t));
  }
}

}  // namespace
}  // namespace ispn::sched
