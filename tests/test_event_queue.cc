#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace ispn::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue q;
  q.schedule(4.5, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 4.5);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventSkippedByPop) {
  EventQueue q;
  std::vector<int> fired;
  const EventId id = q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<double>(100 - i), [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 50u);
  double last = -1;
  int count = 0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST(EventQueue, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule(1.0, [] {});
  EXPECT_EQ(q.total_scheduled(), 7u);
}

// --- slab/generation regression tests ------------------------------------
// The seed's lazy-cancel design leaked an entry in its cancelled-id set
// whenever an event was cancelled after its heap entry had been popped; the
// generation-stamped slab removes the set entirely.  These tests pin the
// semantics that replaced it.

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireDoesNotKillRecycledSlot) {
  EventQueue q;
  const EventId stale = q.schedule(1.0, [] {});
  q.pop();
  // The next schedule recycles the same slot; the stale id must not be
  // able to cancel it (generation mismatch).
  bool fired = false;
  const EventId fresh = q.schedule(2.0, [&] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, DoubleCancelAfterReuseReturnsFalse) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  const EventId b = q.schedule(1.0, [] {});  // reuses slot a
  EXPECT_FALSE(q.cancel(a));                 // stale id, same slot
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));
}

TEST(EventQueue, SlotsAreRecycled) {
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    const EventId a = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.cancel(a);
    q.pop();
  }
  // A wheel of at most 2 concurrent events must not grow the slab beyond
  // a couple of slots — this is the no-leak property.
  EXPECT_LE(q.slab_slots(), 4u);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.free_slots(), q.slab_slots());
}

TEST(EventQueue, CancelReleasesCapturedState) {
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(1.0, [token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(id));
  // Cancellation must drop the closure (and its captures) eagerly, not
  // hold them until the heap entry surfaces.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, LargeCapturesFireCorrectly) {
  // Closures above the inline budget take the heap-boxed cold path; they
  // must behave identically.
  EventQueue q;
  struct Big {
    std::array<double, 16> payload{};
  };
  Big big;
  big.payload[7] = 3.5;
  double got = 0;
  q.schedule(1.0, [big, &got] { got = big.payload[7]; });
  q.pop().action();
  EXPECT_DOUBLE_EQ(got, 3.5);
}

TEST(EventQueue, ManyCancelledEntriesDoNotAccumulate) {
  EventQueue q;
  // Schedule and cancel in waves; the slab and free list must stay
  // bounded by the peak concurrency, and ids must stay unique.
  std::vector<EventId> ids;
  for (int wave = 0; wave < 50; ++wave) {
    ids.clear();
    for (int i = 0; i < 20; ++i) {
      ids.push_back(q.schedule(static_cast<double>(i), [] {}));
    }
    for (EventId id : ids) EXPECT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.slab_slots(), 32u);
}

// --- ordering and staleness tests ---------------------------------------

TEST(EventQueue, PopsInTimeThenFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(30); });
  q.schedule(1.0, [&] { fired.push_back(10); });
  q.schedule(1.0, [&] { fired.push_back(11); });  // same time: FIFO
  q.schedule(2.0, [&] { fired.push_back(20); });
  q.schedule(1.0, [&] { fired.push_back(12); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{10, 11, 12, 20, 30}));
}

TEST(EventQueue, SubTickCoincidencesStayExactlyOrdered) {
  // Times closer together than any coarse bucketing the wheel might use
  // (nanoseconds apart) must still pop in exact time order.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0 + 3e-9, [&] { fired.push_back(3); });
  q.schedule(1.0 + 1e-9, [&] { fired.push_back(1); });
  q.schedule(1.0 + 2e-9, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] { fired.push_back(0); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ScheduleDuringPopAtSameInstantFiresInOrder) {
  // An event firing at t may schedule more work at t; it must run after
  // everything already pending at t (FIFO), even if the wheel had
  // already sorted that instant's run.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] {
    fired.push_back(1);
    q.schedule(1.0, [&] { fired.push_back(3); });
  });
  q.schedule(1.0, [&] { fired.push_back(2); });
  q.schedule(2.0, [&] { fired.push_back(4); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

// Satellite: next_time()/pop() must advance cleanly over large bands of
// stale keys left by cancel bursts (the port retry pattern at scale).
TEST(EventQueue, StaleKeyAdvanceAfterHeavyCancelBursts) {
  EventQueue q;
  std::vector<int> fired;
  // Interleave survivors with doomed events across a wide time range so
  // stale keys pepper every wheel level, then cancel in bursts.
  std::vector<EventId> doomed;
  for (int i = 0; i < 500; ++i) {
    const double t = 0.01 * (i + 1);
    if (i % 10 == 0) {
      q.schedule(t, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(q.schedule(t, [&fired] { fired.push_back(-1); }));
    }
  }
  for (EventId id : doomed) EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 50u);
  // next_time must skim every stale prefix and report the live head.
  EXPECT_DOUBLE_EQ(q.next_time(), 0.01);
  int expected = 0;
  while (!q.empty()) {
    const Time t = q.next_time();
    auto f = q.pop();
    EXPECT_DOUBLE_EQ(f.time, t);
    f.action();
    EXPECT_EQ(fired.back(), expected);
    expected += 10;
  }
  EXPECT_EQ(fired.size(), 50u);
  // Every slot is recyclable afterwards: nothing leaked.
  EXPECT_EQ(q.free_slots(), q.slab_slots());
}

// Satellite: cancel() on an already-fired id must return false and never
// touch a recycled slot, even after the slot has cycled through many
// generations (the 32-bit generation makes an accidental match need 2^32
// reuses; this pins the mechanism across a dense slice of them).
TEST(EventQueue, StaleIdsNeverCancelAcrossGenerations) {
  EventQueue q;
  EventId first = kInvalidEventId;
  EventId previous = kInvalidEventId;
  for (int round = 0; round < 50000; ++round) {
    // One live event at a time: every round recycles the same slot with a
    // fresh generation.
    const EventId id = q.schedule(1.0 + round * 1e-5, [] {});
    EXPECT_NE(id, previous);
    if (first == kInvalidEventId) first = id;
    // Ids from every earlier generation must have gone inert.
    if (round > 0) {
      EXPECT_FALSE(q.cancel(previous));
      EXPECT_FALSE(q.cancel(first));
    }
    q.pop();
    EXPECT_FALSE(q.cancel(id));  // cancel-after-fire
    previous = id;
  }
  EXPECT_LE(q.slab_slots(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelBurstThenRefillReusesSlots) {
  EventQueue q;
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i) {
      ids.push_back(q.schedule(0.001 * i + wave, [] {}));
    }
    // Cancel all but every 7th, pop the survivors.
    std::size_t live = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 7 != 0) {
        EXPECT_TRUE(q.cancel(ids[i]));
      } else {
        ++live;
      }
    }
    EXPECT_EQ(q.size(), live);
    while (!q.empty()) q.pop();
  }
  // Slab bounded by one wave's peak, not the 4000 events scheduled.
  EXPECT_LE(q.slab_slots(), 256u);
  EXPECT_EQ(q.free_slots(), q.slab_slots());
}

// The wheel's resolution adaptation needs BOTH signals: high occupancy
// and an observed crowded sorted run.  A same-instant pile-up escalates;
// the same occupancy spread across the horizon must not (finer ticks
// would only multiply refill windows there).
TEST(EventQueueWheelAdapt, SameInstantPileUpEscalatesResolution) {
  EventQueue q;
  const double base = q.ticks_per_sec();
  // 110k events packed 1 ns apart: far above the occupancy threshold and
  // all inside a handful of base-resolution ticks.
  constexpr int kN = 110000;
  for (int i = 0; i < kN; ++i) q.schedule(1.0 + 1e-9 * i, [] {});
  // Pure inserts bucket without building a run; no escalation yet.
  EXPECT_EQ(q.ticks_per_sec(), base);
  // The first pop sorts the giant window; the next insert sees the
  // crowded-run evidence and escalates.
  Time prev = q.pop().time;
  q.schedule(1.0 + 1e-9 * kN, [] {});
  EXPECT_GT(q.ticks_per_sec(), base);
  // Pop order stays exact (time, seq) across the re-filing.
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_LT(prev, t);
    prev = t;
  }
}

TEST(EventQueueWheelAdapt, SpreadOutLoadKeepsBaseResolution) {
  EventQueue q;
  const double base = q.ticks_per_sec();
  // Same occupancy, but ~13 base ticks between events: every sorted run
  // stays tiny, so the density gate must hold the base resolution.
  constexpr int kN = 120000;
  for (int i = 0; i < kN; ++i) q.schedule(1.0 + 1e-4 * i, [] {});
  Time prev = 0;
  for (int i = 0; i < 10000; ++i) {
    const Time t = q.pop().time;
    EXPECT_LT(prev, t);
    prev = t;
  }
  // Occupancy is still past the threshold; runs were never crowded.
  for (int i = 0; i < 1000; ++i) q.schedule(1.0 + 1e-4 * (kN + i), [] {});
  EXPECT_EQ(q.ticks_per_sec(), base);
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_LT(prev, t);
    prev = t;
  }
}

}  // namespace
}  // namespace ispn::sim
