// Semantics of the persistent sim::Timer: re-arm while pending (supersede
// in place), disarm, FIFO interleaving with one-shot schedule() at the
// same instant, slab-slot pinning across firings, and move/destroy
// lifecycle.

#include "sim/timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace ispn::sim {
namespace {

TEST(Timer, FiresAtArmedInstant) {
  Simulator sim;
  std::vector<Time> fired;
  Timer t(sim, [&] { fired.push_back(sim.now()); });
  EXPECT_FALSE(t.pending());
  t.arm_at(1.5);
  EXPECT_TRUE(t.pending());
  EXPECT_DOUBLE_EQ(t.expiry(), 1.5);
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 1.5);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RearmWhilePendingSupersedes) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_at(1.0);
  t.arm_at(3.0);  // supersedes: must NOT fire at 1.0
  sim.run_until(2.0);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Timer, RearmEarlierMovesFiring) {
  Simulator sim;
  std::vector<Time> fired;
  Timer t(sim, [&] { fired.push_back(sim.now()); });
  t.arm_at(5.0);
  t.arm_at(2.0);
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 2.0);
}

TEST(Timer, DisarmPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_at(1.0);
  EXPECT_TRUE(t.disarm());
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.disarm());  // second disarm: nothing pending
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Timer, DisarmAfterFireReturnsFalse) {
  Simulator sim;
  Timer t(sim, [] {});
  t.arm_at(1.0);
  sim.run();
  EXPECT_FALSE(t.disarm());
}

TEST(Timer, ActionCanRearmItself) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    EXPECT_FALSE(t.pending());  // idle by the time the action runs
    if (++fired < 5) t.arm_after(0.25);
  });
  t.arm_at(0.25);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 1.25);
}

// Timers share the global scheduling sequence with one-shot events, so
// arms and schedules at the same instant fire in call order — re-arming
// does not lose a timer its place semantics.
TEST(Timer, SameInstantFifoWithOneShots) {
  Simulator sim;
  std::vector<int> order;
  Timer a(sim, [&] { order.push_back(1); });
  Timer b(sim, [&] { order.push_back(3); });
  a.arm_at(1.0);                          // first
  sim.at(1.0, [&] { order.push_back(2); });  // second
  b.arm_at(1.0);                          // third
  sim.at(1.0, [&] { order.push_back(4); });  // fourth
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Timer, RearmAtSameInstantMovesToBackOfLine) {
  Simulator sim;
  std::vector<int> order;
  Timer a(sim, [&] { order.push_back(1); });
  a.arm_at(1.0);
  sim.at(1.0, [&] { order.push_back(2); });
  // Re-arming at the same instant supersedes the original arm, so the
  // timer now fires after the one-shot — identical to cancel+reschedule.
  a.arm_at(1.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// The heart of the perf claim: a timer keeps its slab slot across
// firings, so steady re-arming neither grows the slab nor churns the
// free list.
TEST(Timer, RearmKeepsSlabSlotPinned) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    ++fired;
    t.arm_after(1e-3);
  });
  t.arm_at(1e-3);
  for (int i = 0; i < 100; ++i) sim.step();
  const std::size_t slots = sim.queue().slab_slots();
  const std::size_t free_slots = sim.queue().free_slots();
  for (int i = 0; i < 10000; ++i) sim.step();
  EXPECT_EQ(fired, 10100);
  EXPECT_EQ(sim.queue().slab_slots(), slots);
  EXPECT_EQ(sim.queue().free_slots(), free_slots);
}

TEST(Timer, DestroyReleasesSlotAndCancelsArm) {
  Simulator sim;
  int fired = 0;
  const std::size_t base_slots = sim.queue().slab_slots();
  {
    Timer t(sim, [&] { ++fired; });
    t.arm_at(1.0);
    EXPECT_EQ(sim.queue().size(), 1u);
  }
  EXPECT_EQ(sim.queue().size(), 0u);  // pending arm died with the timer
  sim.run();
  EXPECT_EQ(fired, 0);
  // The slot returned to the free list: a fresh timer reuses it.
  Timer t2(sim, [] {});
  EXPECT_EQ(sim.queue().slab_slots(), std::max<std::size_t>(base_slots, 1));
}

TEST(Timer, MoveKeepsPendingArmAlive) {
  Simulator sim;
  int fired = 0;
  Timer a(sim, [&] { ++fired; });
  a.arm_at(1.0);
  Timer b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 1);

  // Move-assignment over a live timer releases the target's slot.
  Timer c(sim, [&] { ++fired; });
  c.arm_at(2.0);
  Timer d(sim, [&] { ++fired; });
  c = std::move(d);  // the 2.0 arm dies with c's old state
  sim.run();
  EXPECT_EQ(fired, 1);
}

// A timer armed far in the future coexists with near-term churn (the
// wheel keeps it in a high level / overflow until due).
TEST(Timer, FarFutureArmSurvivesChurn) {
  Simulator sim;
  int fired = 0;
  Timer far(sim, [&] { ++fired; });
  far.arm_at(1e6);  // ~11.6 days of simulated time
  std::uint64_t ticks = 0;
  Timer churn(sim, [&] {
    if (++ticks < 1000) churn.arm_after(0.5);
  });
  churn.arm_at(0.5);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1e6);
}

TEST(Timer, MakeTimerFactory) {
  Simulator sim;
  int fired = 0;
  auto t = sim.make_timer([&] { ++fired; });
  t.arm_after(0.5);
  sim.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace ispn::sim
