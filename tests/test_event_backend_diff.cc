// Differential determinism harness for the event core.
//
// The event queue orders events on a hierarchical timing wheel: coarse
// integer ticks, per-tick sorted runs, lazy cascades, overflow re-homing
// and load-adaptive resolution.  None of that may be observable.  Firing
// order must be exactly (time, seq): same-instant events fire in
// scheduling order, a re-armed timer takes a fresh place in line, and a
// cancelled or disarmed event never fires.
//
// The harness replays seeded op streams — one-shot schedules across wildly
// mixed horizons, same-instant clusters, cancels of random outstanding
// ids, persistent-timer arm/re-arm/disarm, interleaved pops — through a
// Simulator and through a reference model written here: an ordered map
// keyed on (time, seq) with the same supersede and cancel rules.  The two
// (time, tag) firing sequences must match exactly, doubles compared with
// ==, since one transposed same-instant pair is enough to change every
// downstream statistic.

#include <gtest/gtest.h>

#include <cstdint>
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

constexpr int kTimers = 4;

/// The event core under test, driven through Simulator and Timer.
class WheelQueue {
 public:
  WheelQueue() {
    timers_.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers_.emplace_back(sim_, [this, i] {
        fired.push_back({sim_.now(), timer_tags_[i]});
      });
    }
  }

  std::size_t schedule(sim::Duration delay, int tag) {
    ids_.push_back(sim_.after(
        delay, [this, tag] { fired.push_back({sim_.now(), tag}); }));
    return ids_.size() - 1;
  }
  void cancel(std::size_t handle) { sim_.cancel(ids_[handle]); }
  void arm(int timer, sim::Duration delay, int tag) {
    timer_tags_[timer] = tag;
    timers_[static_cast<std::size_t>(timer)].arm_after(delay);
  }
  void disarm(int timer) {
    timers_[static_cast<std::size_t>(timer)].disarm();
  }
  bool step() { return sim_.step(); }

  std::vector<Firing> fired;

 private:
  sim::Simulator sim_;
  std::vector<sim::Timer> timers_;  // destroyed before sim_
  int timer_tags_[kTimers] = {};
  std::vector<sim::EventId> ids_;
};

/// The reference: every pending event is a map entry keyed on (time, seq),
/// seq drawn from one counter shared by schedules and arms, so same-instant
/// entries fire in call order.  Cancel and disarm erase the entry; a
/// re-arm erases the pending arm and inserts a fresh key, exactly like
/// cancel followed by schedule.
class ReferenceQueue {
 public:
  std::size_t schedule(sim::Duration delay, int tag) {
    keys_.push_back(insert(delay, tag));
    return keys_.size() - 1;
  }
  void cancel(std::size_t handle) { pending_.erase(keys_[handle]); }
  void arm(int timer, sim::Duration delay, int tag) {
    disarm(timer);
    timer_keys_[timer] = insert(delay, tag);
  }
  void disarm(int timer) { pending_.erase(timer_keys_[timer]); }
  bool step() {
    if (pending_.empty()) return false;
    const auto head = pending_.begin();
    now_ = head->first.first;
    fired.push_back({now_, head->second});
    pending_.erase(head);
    return true;
  }

  std::vector<Firing> fired;

 private:
  using Key = std::pair<sim::Time, std::uint64_t>;  // (time, seq)

  Key insert(sim::Duration delay, int tag) {
    const Key key{now_ + delay, next_seq_++};
    pending_.emplace(key, tag);
    return key;
  }

  std::map<Key, int> pending_;
  std::vector<Key> keys_;  // one-shot handle -> key (erase is a no-op once
                           // fired or cancelled: seqs are never reused)
  Key timer_keys_[kTimers] = {};
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 1;
};

/// Replays the seeded op stream through `Queue` and returns its firing
/// sequence.
template <typename Queue>
std::vector<Firing> replay(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B9u + 17);
  Queue q;
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

TEST(EventBackendDiff, QueueFuzzFiringOrderIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ref = replay<ReferenceQueue>(seed);
    const auto got = replay<WheelQueue>(seed);
    EXPECT_GT(ref.size(), 1000u);
    ASSERT_EQ(ref.size(), got.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(ref[i] == got[i])
          << "seed " << seed << " firing " << i << " diverged: wheel ("
          << got[i].time << ", " << got[i].tag << ") vs reference ("
          << ref[i].time << ", " << ref[i].tag << ")";
    }
  }
}

}  // namespace
}  // namespace ispn
