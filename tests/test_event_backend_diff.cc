// Differential determinism harness for the event core.
//
// The event queue orders events on a hierarchical timing wheel (coarse
// integer ticks, per-tick sorted runs, lazy cascades, overflow re-homing,
// load-adaptive resolution) plus a small table of fixed-delay FIFO lanes
// that take the keys of timers re-armed with their previous delay.  None
// of that may be observable.  Firing order must be exactly (time, seq):
// same-instant events fire in scheduling order, a re-armed timer takes a
// fresh place in line, and a cancelled, disarmed or superseded event never
// fires.
//
// The harness replays seeded op streams through a Simulator and through a
// reference model written here: an ordered map keyed on (time, seq) with
// the same supersede and cancel rules.  The two (time, tag) firing
// sequences must match exactly, doubles compared with ==, since one
// transposed same-instant pair is enough to change every downstream
// statistic.  Two stream families:
//
//   * the wheel fuzz — one-shot schedules across wildly mixed horizons,
//     same-instant clusters, cancels of random outstanding ids,
//     persistent-timer arm/re-arm/disarm with random delays, interleaved
//     pops;
//   * the lane fuzz — many timers sharing each of more distinct dyadic
//     delays than there are lanes, re-arming themselves with arm_after()
//     from their own action (the periodic source pattern), mixed with
//     supersedes of a pending arm by the same delay, delay switches,
//     disarms, arm_at(), arm_after(0), one-shot schedule/cancel, pops,
//     next-time peeks and run_until()/run_before() slices (a peek or a
//     slice may advance the wheel's cursor ahead of the clock, and later
//     schedules must still fire in order).  Dyadic delays keep every sum
//     exact, so arms from different lanes and the wheel keep landing on
//     the same instant;
//   * the deferral fuzz — timers re-armed while pending, later than their
//     pending arm (deferred behind the key on file, often several times
//     before it surfaces) and earlier (a fresh key), with same-delay
//     arm_after() (the lane path, which cancels a deferral), arm_after(0),
//     disarms, destruction and re-creation of a timer (whose slot is
//     recycled while its old keys are still filed), one-shots on the same
//     grid, peeks and run slices.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/timer.h"

namespace ispn {
namespace {

struct Firing {
  sim::Time time;
  int tag;
  bool operator==(const Firing& o) const {
    return time == o.time && tag == o.tag;
  }
};

/// The event core under test, driven through Simulator and Timer.
class WheelQueue {
 public:
  explicit WheelQueue(int timers)
      : timer_tags_(static_cast<std::size_t>(timers)),
        periods_(static_cast<std::size_t>(timers)) {
    timers_.reserve(static_cast<std::size_t>(timers));
    for (std::size_t i = 0; i < static_cast<std::size_t>(timers); ++i) {
      timers_.push_back(make_timer(i));
    }
  }

  std::size_t schedule(sim::Duration delay, int tag) {
    ids_.push_back(sim_.after(
        delay, [this, tag] { fired.push_back({sim_.now(), tag}); }));
    return ids_.size() - 1;
  }
  void cancel(std::size_t handle) { sim_.cancel(ids_[handle]); }
  void arm(int timer, sim::Duration delay, int tag) {
    timer_tags_[index(timer)] = tag;
    timers_[index(timer)].arm_after(delay);
  }
  void arm_at(int timer, sim::Time at, int tag) {
    timer_tags_[index(timer)] = tag;
    timers_[index(timer)].arm_at(at);
  }
  /// From now on the timer re-arms itself `period` after each firing
  /// (0: it does not).
  void set_period(int timer, sim::Duration period) {
    periods_[index(timer)] = period;
  }
  void disarm(int timer) { timers_[index(timer)].disarm(); }
  /// Destroys the timer and creates a fresh one in its place, which takes
  /// the slot just freed.
  void recreate(int timer) {
    timers_[index(timer)] = sim::Timer();
    timers_[index(timer)] = make_timer(index(timer));
  }
  bool step() { return sim_.step(); }
  void run_until(sim::Time end) { sim_.run_until(end); }
  void run_before(sim::Time end) { sim_.run_before(end); }
  /// The next event's time, or -1 when none is pending.
  [[nodiscard]] sim::Time next_time() const {
    return sim_.idle() ? -1.0 : sim_.queue().next_time();
  }
  [[nodiscard]] sim::Time now() const { return sim_.now(); }
  [[nodiscard]] const sim::EventQueue& queue() const { return sim_.queue(); }

  std::vector<Firing> fired;

 private:
  static std::size_t index(int timer) {
    return static_cast<std::size_t>(timer);
  }

  sim::Timer make_timer(std::size_t i) {
    return sim::Timer(sim_, [this, i] {
      fired.push_back({sim_.now(), timer_tags_[i]});
      if (periods_[i] > 0) timers_[i].arm_after(periods_[i]);
    });
  }

  sim::Simulator sim_;
  std::vector<sim::Timer> timers_;  // destroyed before sim_
  std::vector<int> timer_tags_;
  std::vector<sim::Duration> periods_;
  std::vector<sim::EventId> ids_;
};

/// The reference: every pending event is a map entry keyed on (time, seq),
/// seq drawn from one counter shared by schedules and arms, so same-instant
/// entries fire in call order.  Cancel and disarm erase the entry; a
/// re-arm erases the pending arm and inserts a fresh key, exactly like
/// cancel followed by schedule; a periodic timer's firing inserts its next
/// arm right after it is recorded, as the timer's action does.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(int timers)
      : timer_keys_(static_cast<std::size_t>(timers)),
        periods_(static_cast<std::size_t>(timers)) {}

  std::size_t schedule(sim::Duration delay, int tag) {
    keys_.push_back(insert(now_ + delay, {tag, kOneShot}));
    return keys_.size() - 1;
  }
  void cancel(std::size_t handle) { pending_.erase(keys_[handle]); }
  void arm(int timer, sim::Duration delay, int tag) {
    arm_at_exactly(timer, now_ + delay, tag);
  }
  void arm_at(int timer, sim::Time at, int tag) {
    arm_at_exactly(timer, at > now_ ? at : now_, tag);  // Timer's clamp
  }
  void set_period(int timer, sim::Duration period) {
    periods_[static_cast<std::size_t>(timer)] = period;
  }
  void disarm(int timer) {
    pending_.erase(timer_keys_[static_cast<std::size_t>(timer)]);
  }
  void recreate(int timer) { disarm(timer); }
  bool step() {
    if (pending_.empty()) return false;
    const auto head = pending_.begin();
    now_ = head->first.first;
    const Entry e = head->second;
    fired.push_back({now_, e.tag});
    pending_.erase(head);
    if (e.timer != kOneShot) {
      const sim::Duration period = periods_[static_cast<std::size_t>(e.timer)];
      if (period > 0) arm(e.timer, period, e.tag);
    }
    return true;
  }
  void run_until(sim::Time end) {
    while (!pending_.empty() && pending_.begin()->first.first <= end) step();
    if (end > now_) now_ = end;
  }
  void run_before(sim::Time end) {
    while (!pending_.empty() && pending_.begin()->first.first < end) step();
  }
  [[nodiscard]] sim::Time next_time() const {
    return pending_.empty() ? -1.0 : pending_.begin()->first.first;
  }
  [[nodiscard]] sim::Time now() const { return now_; }

  std::vector<Firing> fired;

 private:
  using Key = std::pair<sim::Time, std::uint64_t>;  // (time, seq)
  static constexpr int kOneShot = -1;
  struct Entry {
    int tag;
    int timer;  // kOneShot for a one-shot event
  };

  void arm_at_exactly(int timer, sim::Time at, int tag) {
    disarm(timer);
    timer_keys_[static_cast<std::size_t>(timer)] = insert(at, {tag, timer});
  }

  Key insert(sim::Time at, Entry e) {
    const Key key{at, next_seq_++};
    pending_.emplace(key, e);
    return key;
  }

  std::map<Key, Entry> pending_;
  std::vector<Key> keys_;  // one-shot handle -> key (erase is a no-op once
                           // fired or cancelled: seqs are never reused)
  std::vector<Key> timer_keys_;
  std::vector<sim::Duration> periods_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 1;
};

constexpr int kTimers = 4;

/// Replays the seeded wheel-fuzz stream through `Queue` and returns its
/// firing sequence.
template <typename Queue>
std::vector<Firing> replay(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B9u + 17);
  Queue q(kTimers);
  int next_tag = 0;
  std::vector<std::size_t> outstanding;
  auto horizon = [&rng]() -> double {
    switch (rng() % 5) {
      case 0: return 0.0;                                    // same instant
      case 1: return 1e-9 * static_cast<double>(rng() % 50);  // sub-tick
      case 2: return 1e-4 * static_cast<double>(1 + rng() % 100);
      case 3: return 1e-2 * static_cast<double>(1 + rng() % 100);
      default: return 10.0 * static_cast<double>(1 + rng() % 10);
    }
  };

  for (int step = 0; step < 4000; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // schedule a one-shot
        const int tag = next_tag++;
        outstanding.push_back(q.schedule(horizon(), tag));
        break;
      }
      case 3: {  // cancel a random outstanding id (may already have fired)
        if (!outstanding.empty()) {
          const std::size_t i = rng() % outstanding.size();
          q.cancel(outstanding[i]);
          outstanding[i] = outstanding.back();
          outstanding.pop_back();
        }
        break;
      }
      case 4: {  // (re-)arm a persistent timer
        const int timer = static_cast<int>(rng() % kTimers);
        const int tag = next_tag++;
        q.arm(timer, horizon(), tag);
        break;
      }
      case 5: {  // disarm a timer (may not be pending)
        q.disarm(static_cast<int>(rng() % kTimers));
        break;
      }
      default: {  // pop a burst
        const int n = static_cast<int>(rng() % 4);
        for (int i = 0; i < n && q.step(); ++i) {
        }
        break;
      }
    }
  }
  while (q.step()) {
  }
  return std::move(q.fired);
}

constexpr int kLaneTimers = 24;
/// Ten distinct dyadic periods, more than the queue's lane table holds.
constexpr sim::Duration kPeriods[] = {
    1.0 / 1024, 3.0 / 2048, 1.0 / 512,  5.0 / 4096, 3.0 / 1024,
    1.0 / 256,  7.0 / 4096, 5.0 / 2048, 3.0 / 512,  1.0 / 128,
};
constexpr std::size_t kNumPeriods = std::size(kPeriods);

/// Tags of the records the lane fuzz interleaves with firings: a
/// next_time() peek's answer, and the clock after a run slice.
constexpr int kPeekTag = -1;
constexpr int kSliceTag = -2;

/// Replays the seeded lane-fuzz stream through `q` (built with
/// kLaneTimers timers).  Every timer starts periodic on one of kPeriods
/// (several timers per period); the stream then mixes one-shots, cancels,
/// same-delay supersedes, delay switches, disarms, arm_at() and
/// arm_after(0), pops, next_time() peeks, and run_until()/run_before()
/// slices to a nearby horizon.  At the end the timers stop re-arming and
/// the queue drains.
template <typename Queue>
std::vector<Firing> replay_lanes(std::uint64_t seed, Queue& q) {
  std::mt19937_64 rng(seed * 0x51ED27u + 3);
  int next_tag = 0;
  std::vector<std::size_t> outstanding;
  std::vector<sim::Duration> period(kLaneTimers);
  auto pick_timer = [&rng] {
    return static_cast<int>(rng() % kLaneTimers);
  };
  auto pick_period = [&rng] { return kPeriods[rng() % kNumPeriods]; };
  for (int t = 0; t < kLaneTimers; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    period[i] = kPeriods[i % kNumPeriods];
    q.set_period(t, period[i]);
    q.arm(t, period[i], next_tag++);
  }

  for (int step = 0; step < 8000; ++step) {
    switch (rng() % 16) {
      case 0:
      case 1: {  // one-shot on the lanes' grid (ties), or at this instant
        const sim::Duration d = rng() % 4 == 0 ? 0.0 : pick_period();
        outstanding.push_back(q.schedule(d, next_tag++));
        break;
      }
      case 2: {  // cancel a random outstanding one-shot
        if (!outstanding.empty()) {
          const std::size_t i = rng() % outstanding.size();
          q.cancel(outstanding[i]);
          outstanding[i] = outstanding.back();
          outstanding.pop_back();
        }
        break;
      }
      case 3:
      case 4: {  // supersede: re-arm with the timer's own period
        const int t = pick_timer();
        q.arm(t, period[static_cast<std::size_t>(t)], next_tag++);
        break;
      }
      case 5: {  // switch the timer to another period
        const int t = pick_timer();
        period[static_cast<std::size_t>(t)] = pick_period();
        q.set_period(t, period[static_cast<std::size_t>(t)]);
        q.arm(t, period[static_cast<std::size_t>(t)], next_tag++);
        break;
      }
      case 6: {  // disarm (until a later arm)
        q.disarm(pick_timer());
        break;
      }
      case 7: {  // absolute arm on the grid, then periodic again
        const int t = pick_timer();
        const sim::Time at =
            q.now() + static_cast<double>(rng() % 64) / 4096.0;
        q.arm_at(t, at, next_tag++);
        break;
      }
      case 8: {  // fire at this very instant, behind everything pending
        q.arm(pick_timer(), 0.0, next_tag++);
        break;
      }
      case 9: {  // peek at the next event (the sharded engine's min_next)
        q.fired.push_back({q.next_time(), kPeekTag});
        break;
      }
      case 10: {  // run a slice to a nearby horizon, inclusive or not
        // Half the horizons fall within a few wheel ticks, below where a
        // peek may have moved the wheel's cursor.
        const double unit = rng() % 2 == 0 ? 1.0 / 8192 : 1.0 / 262144;
        const sim::Time end = q.now() + static_cast<double>(rng() % 48) * unit;
        if (rng() % 2 == 0) {
          q.run_until(end);
        } else {
          q.run_before(end);
        }
        q.fired.push_back({q.now(), kSliceTag});
        break;
      }
      default: {  // pop a burst
        const int n = static_cast<int>(rng() % 8);
        for (int i = 0; i < n && q.step(); ++i) {
        }
        break;
      }
    }
  }
  for (int t = 0; t < kLaneTimers; ++t) q.set_period(t, 0);
  while (q.step()) {
  }
  return std::move(q.fired);
}

constexpr int kDeferTimers = 12;

/// Replays the seeded deferral stream through `q` (built with
/// kDeferTimers timers).  Every time is on a 1/4096 s grid, so arms,
/// re-arms and one-shots keep colliding on the same instant.  A third of
/// the timers re-arm themselves periodically; the rest fire once per arm.
template <typename Queue>
std::vector<Firing> replay_deferrals(std::uint64_t seed, Queue& q) {
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 11);
  constexpr double kGrid = 1.0 / 4096;
  constexpr sim::Duration kSameDelay = 5 * kGrid;
  int next_tag = 0;
  std::vector<std::size_t> outstanding;
  auto pick_timer = [&rng] {
    return static_cast<int>(rng() % kDeferTimers);
  };
  auto grid = [&rng, kGrid](unsigned span) {
    return kGrid * static_cast<double>(rng() % span);
  };
  for (int t = 0; t < kDeferTimers; ++t) {
    if (t % 3 == 0) q.set_period(t, (1 + t) * kGrid);
    q.arm(t, grid(64), next_tag++);
  }

  for (int step = 0; step < 8000; ++step) {
    switch (rng() % 16) {
      case 0:
      case 1: {  // a one-shot on the grid, often at a timer's due instant
        outstanding.push_back(q.schedule(grid(48), next_tag++));
        break;
      }
      case 2: {  // cancel a random outstanding one-shot
        if (!outstanding.empty()) {
          const std::size_t i = rng() % outstanding.size();
          q.cancel(outstanding[i]);
          outstanding[i] = outstanding.back();
          outstanding.pop_back();
        }
        break;
      }
      case 3:
      case 4: {  // several re-arms, each later than the last
        const int t = pick_timer();
        sim::Time at = q.now() + grid(32);
        for (int n = 1 + static_cast<int>(rng() % 4); n > 0; --n) {
          q.arm_at(t, at, next_tag++);
          at += grid(8);
        }
        break;
      }
      case 5: {  // an absolute arm, later or earlier than the pending one
        q.arm_at(pick_timer(), q.now() + grid(64), next_tag++);
        break;
      }
      case 6: {  // a one-off relative arm
        q.arm(pick_timer(), grid(64), next_tag++);
        break;
      }
      case 7: {  // the same delay twice running: the second takes a lane
        q.arm(pick_timer(), kSameDelay, next_tag++);
        break;
      }
      case 8: {  // fire at this very instant, behind everything pending
        q.arm(pick_timer(), 0.0, next_tag++);
        break;
      }
      case 9: {
        q.disarm(pick_timer());
        break;
      }
      case 10: {  // destroy while armed (perhaps deferred); reuse the slot
        const int t = pick_timer();
        q.recreate(t);
        if (rng() % 2 == 0) q.arm(t, grid(32), next_tag++);
        break;
      }
      case 11: {  // peek at the next event (the sharded engine's min_next)
        q.fired.push_back({q.next_time(), kPeekTag});
        break;
      }
      case 12: {  // run a slice to a nearby horizon, inclusive or not
        const sim::Time end = q.now() + grid(40);
        if (rng() % 2 == 0) {
          q.run_until(end);
        } else {
          q.run_before(end);
        }
        q.fired.push_back({q.now(), kSliceTag});
        break;
      }
      default: {  // pop a burst
        const int n = static_cast<int>(rng() % 6);
        for (int i = 0; i < n && q.step(); ++i) {
        }
        break;
      }
    }
  }
  for (int t = 0; t < kDeferTimers; ++t) q.set_period(t, 0);
  while (q.step()) {
  }
  return std::move(q.fired);
}

void expect_same_firings(const std::vector<Firing>& ref,
                         const std::vector<Firing>& got,
                         std::uint64_t seed) {
  for (std::size_t i = 0; i < ref.size() && i < got.size(); ++i) {
    ASSERT_TRUE(ref[i] == got[i])
        << "seed " << seed << " firing " << i << " diverged: queue ("
        << got[i].time << ", " << got[i].tag << ") vs reference ("
        << ref[i].time << ", " << ref[i].tag << ")";
  }
  ASSERT_EQ(ref.size(), got.size()) << "seed " << seed;
}

TEST(EventBackendDiff, QueueFuzzFiringOrderIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ref = replay<ReferenceQueue>(seed);
    const auto got = replay<WheelQueue>(seed);
    EXPECT_GT(ref.size(), 1000u);
    expect_same_firings(ref, got, seed);
  }
}

TEST(EventBackendDiff, LaneFuzzFiringOrderIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ReferenceQueue reference(kLaneTimers);
    WheelQueue queue(kLaneTimers);
    const auto ref = replay_lanes(seed, reference);
    const auto got = replay_lanes(seed, queue);
    EXPECT_GT(ref.size(), 10000u);
    // The stream must actually drive the lanes, and the wheel beside
    // them, or it proves nothing about the merge.
    const double lane_share =
        static_cast<double>(queue.queue().lane_inserts()) /
        static_cast<double>(queue.queue().total_scheduled());
    EXPECT_GT(lane_share, 0.5) << "seed " << seed;
    EXPECT_LT(lane_share, 0.95) << "seed " << seed;
    expect_same_firings(ref, got, seed);
  }
}

TEST(EventBackendDiff, DeferralFuzzFiringOrderIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ReferenceQueue reference(kDeferTimers);
    WheelQueue queue(kDeferTimers);
    const auto ref = replay_deferrals(seed, reference);
    const auto got = replay_deferrals(seed, queue);
    EXPECT_GT(ref.size(), 5000u);
    // The stream must actually defer re-arms, and file fresh keys beside
    // them, or it proves nothing about the hand-over.
    const double deferred_share =
        static_cast<double>(queue.queue().deferred_arms()) /
        static_cast<double>(queue.queue().total_scheduled());
    EXPECT_GT(deferred_share, 0.1) << "seed " << seed;
    EXPECT_LT(deferred_share, 0.6) << "seed " << seed;
    EXPECT_GT(queue.queue().lane_inserts(), 0u) << "seed " << seed;
    expect_same_firings(ref, got, seed);
  }
}

// Re-arming a pending timer for later keeps its filed key; when that key
// surfaces the deferred arm is filed in its place.  One-shots scheduled
// at the deferred instant before and after the deferring arm fire on
// either side of it.
TEST(EventBackendDiff, DeferredRearmKeepsSchedulingOrder) {
  sim::Simulator sim;
  std::vector<Firing> fired;
  sim::Timer a(sim, [&] { fired.push_back({sim.now(), 0}); });
  a.arm_at(1.0);
  sim.at(2.0, [&] { fired.push_back({sim.now(), 1}); });
  a.arm_at(3.0);  // later: deferred behind the key at 1.0
  a.arm_at(2.0);  // no earlier than the filed key: deferred again
  sim.at(2.0, [&] { fired.push_back({sim.now(), 2}); });
  EXPECT_EQ(sim.queue().deferred_arms(), 2u);
  EXPECT_EQ(sim.queue().next_time(), 2.0);  // the key at 1.0 is skipped
  EXPECT_TRUE(a.pending());
  sim.run_until(10.0);
  const std::vector<Firing> want = {{2.0, 1}, {2.0, 0}, {2.0, 2}};
  EXPECT_TRUE(fired == want);
}

// A deferred arm dies with its timer: disarming, or destroying the timer
// and reusing its slot, must leave nothing behind to fire.
TEST(EventBackendDiff, DisarmAndDestroyCancelADeferral) {
  sim::Simulator sim;
  int fired = 0;
  sim::Timer a(sim, [&] { ++fired; });
  a.arm_at(1.0);
  a.arm_at(2.0);
  EXPECT_TRUE(a.disarm());
  EXPECT_FALSE(a.pending());
  sim.run_until(5.0);
  EXPECT_EQ(fired, 0);

  a.arm_at(6.0);
  a.arm_at(7.0);
  a = sim::Timer();  // destroyed while deferred
  sim::Timer b(sim, [&] { fired += 10; });  // takes the freed slot
  EXPECT_TRUE(sim.idle());
  sim.run_until(10.0);
  EXPECT_EQ(fired, 0);
  b.arm_at(11.0);
  sim.run_until(12.0);
  EXPECT_EQ(fired, 10);
}

// A peek bounded by a lane head may move the wheel's cursor up to that
// head's tick, ahead of the clock.  A key filed afterwards behind the
// cursor lands in the cursor's bucket; it must still fire first, and a
// slice whose horizon lies below the cursor must not miss it.
TEST(EventBackendDiff, ScheduleBehindPeekedCursorFiresInOrder) {
  sim::Simulator sim;
  std::vector<Firing> fired;
  sim::Timer a(sim, [&] { fired.push_back({sim.now(), 0}); });
  a.arm_after(10.0);
  a.arm_after(10.0);  // the previous delay: this key goes to a lane
  ASSERT_EQ(sim.queue().lane_inserts(), 1u);
  sim.at(10.0001, [&] { fired.push_back({sim.now(), 1}); });
  EXPECT_EQ(sim.queue().next_time(), 10.0);
  sim.at(5.0, [&] { fired.push_back({sim.now(), 2}); });
  EXPECT_EQ(sim.run_until(7.0), 1u);
  sim.run_until(20.0);
  const std::vector<Firing> want = {{5.0, 2}, {10.0, 0}, {10.0001, 1}};
  EXPECT_TRUE(fired == want);
}

// The same through run_before(): a slice that fires nothing may still
// move the cursor up to its horizon's tick while the clock stays put.
TEST(EventBackendDiff, ScheduleBehindSliceCursorFiresInOrder) {
  sim::Simulator sim;
  std::vector<Firing> fired;
  sim.at(10.0001, [&] { fired.push_back({sim.now(), 1}); });
  EXPECT_EQ(sim.run_before(10.00001), 0u);
  EXPECT_EQ(sim.now(), 0.0);
  sim.at(5.0, [&] { fired.push_back({sim.now(), 2}); });
  EXPECT_EQ(sim.run_before(6.0), 1u);
  EXPECT_EQ(sim.now(), 5.0);
  sim.run_until(20.0);
  const std::vector<Firing> want = {{5.0, 2}, {10.0001, 1}};
  EXPECT_TRUE(fired == want);
}

}  // namespace
}  // namespace ispn
