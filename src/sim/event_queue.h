// A deterministic discrete-event queue.
//
// Events are (time, sequence, action) tuples ordered by time, with the
// insertion sequence number breaking ties so that events scheduled for the
// same instant fire in scheduling order.
//
// Engine layout (allocation-free in steady state):
//
//   * Actions live in a slab of generation-stamped slots recycled through a
//     free list.  An EventId encodes (slot index, generation); cancel() is
//     an O(1) generation check that frees the slot immediately — there is
//     no cancelled-id set to probe on every pop, and a cancelled id can
//     never leak (the stale ordering key is discarded by generation
//     mismatch when it surfaces).
//   * Ordering lives in a hierarchical timing wheel (util/timing_wheel.h)
//     holding small (time, seq, slot, gen) keys: O(1) insert with lazy
//     cascade, and pops in exact (time, seq) order through a sorted run per
//     tick.  The event-core differential test replays seeded op streams
//     through the queue and through an ordered-map reference model and
//     requires identical firing sequences.
//   * Actions are InlineAction: closures up to 48 bytes are stored in the
//     slot itself; larger ones heap-box once (the cold-path escape hatch).
//   * Persistent timers (sim/timer.h) occupy a slab slot for their whole
//     lifetime but keep their action *outside* the slab (in the Timer
//     object, whose address is stable), so re-arming is a pure key insert:
//     no slot churn, no InlineAction reconstruction, and the slot pointer
//     stays valid even if firing the action grows the slab.  Re-arming
//     bumps the slot generation, which atomically invalidates any pending
//     key — arm-over-arm needs no cancel.
//
// Generations are 32-bit and wrap after 2^32 schedules of one slot; with a
// handful of outstanding ids per slot (ports hold at most one retry timer)
// a stale id matching a wrapped generation is not a practical concern.

#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_action.h"
#include "sim/units.h"
#include "util/timing_wheel.h"

namespace ispn::sim {

/// Action run when an event fires.
using EventAction = InlineAction;

/// Opaque identifier for a scheduled event; usable with EventQueue::cancel().
using EventId = std::uint64_t;

/// Sentinel returned when no event was scheduled.
inline constexpr EventId kInvalidEventId = 0;

/// Slab slot index of a persistent timer (sim/timer.h owns the lifetime).
using TimerSlot = std::uint32_t;

/// Sentinel for "no timer slot".
inline constexpr TimerSlot kInvalidTimerSlot = ~TimerSlot{0};

/// Slab-allocated timed-event queue with stable same-time ordering, O(1)
/// cancel, and timing-wheel ordering.  Not thread-safe: the simulator is
/// single-threaded by design.
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` (any void() callable) to run at absolute time `at`.
  /// Returns a handle that can later be passed to cancel().
  template <typename F>
  EventId schedule(Time at, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = InlineAction(std::forward<F>(action));
    s.live = true;
    push_key(Key{at, next_seq_++, slot, s.gen});
    ++live_;
    return make_id(slot, s.gen);
  }

  /// Cancels a previously scheduled event.  Returns true if the event was
  /// still pending; the slot and its captured state are released
  /// immediately and the id can never match a recycled slot (generation
  /// check).  Persistent timer slots are not cancellable through ids.
  bool cancel(EventId id);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Removes and returns the earliest live event, advancing past any stale
  /// ordering keys.  For a one-shot event the action is moved out and the
  /// slot retired; for a persistent timer the action is invoked in place
  /// (it lives in the Timer object, not the slab).
  struct Fired {
    Time time = 0;
    EventAction action;               ///< one-shot payload
    EventAction* in_place = nullptr;  ///< persistent timer payload
    void operator()() {
      if (in_place != nullptr) {
        (*in_place)();
      } else {
        action();
      }
    }
  };
  Fired pop();

  /// If the earliest live event fires at or before `end` (strictly before
  /// when `inclusive` is false), pops it into `out` and returns true;
  /// otherwise returns false with the queue untouched.  The simulator's
  /// run loops use this instead of the next_time()+pop() pair: one front
  /// skim per event instead of two, which at millions of events per
  /// second is a measurable share of the dispatch cost.  Pop order is
  /// identical to pop().
  bool pop_if_before(Time end, bool inclusive, Fired& out);

  // --- persistent timers (wrapped by sim::Timer) ---------------------------

  /// Acquires a slot whose action lives at `*action` (a stable address
  /// owned by the caller) for the life of the timer.
  TimerSlot create_timer(InlineAction* action);

  /// Re-points the slot's action (Timer move support).
  void rebind_timer(TimerSlot t, InlineAction* action);

  /// Releases the slot; a pending arm is cancelled.
  void destroy_timer(TimerSlot t);

  /// (Re-)arms the timer for absolute time `at`.  A pending arm is
  /// superseded atomically (generation bump); no cancel round-trip.
  void arm_timer(TimerSlot t, Time at);

  /// Disarms a pending timer.  Returns false if it was not pending (never
  /// armed, already fired, or already disarmed).
  bool disarm_timer(TimerSlot t);

  /// True while an arm is pending (becomes false just before the action
  /// runs, so the action may re-arm).
  [[nodiscard]] bool timer_armed(TimerSlot t) const {
    assert(t < slots_.size() && slots_[t].persistent);
    return slots_[t].live;
  }

  // --- diagnostics ---------------------------------------------------------

  /// Number of live (non-cancelled) events, armed timers included.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Total events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_ - 1; }

  /// Slab capacity / recycled-slot count (diagnostics; tests pin slot
  /// reuse and leak-freedom through these).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }

  /// Current wheel tick resolution (escalates under load; diagnostic).
  [[nodiscard]] double ticks_per_sec() const { return ticks_per_sec_; }

 private:
  struct Slot {
    InlineAction action;             ///< one-shot payload
    InlineAction* external = nullptr;  ///< persistent payload (Timer-owned)
    std::uint32_t gen = 1;  ///< bumped on every retire / (re-)arm
    bool live = false;      ///< one-shot pending / timer armed
    bool persistent = false;
  };
  struct Key {
    Time time = 0;
    std::uint64_t seq = 0;  // global tie-break: same-time FIFO
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  using Wheel = util::TimingWheel<Key, KeyLess>;

  /// Wheel resolution: 2^17 ticks per second (~7.6 us) at rest.  Fine
  /// enough that distinct transmission instants land in distinct buckets
  /// (a 1 Mbit/s link transmits one packet per ~131 ticks), coarse enough
  /// that typical horizons need only two or three wheel levels — sub-tick
  /// coincidences are resolved exactly by the sorted run, so resolution is
  /// purely a performance knob.  A run that piles ~10^5+ events into a
  /// handful of ticks collapses the wheel into a giant sort: resolution
  /// then escalates x64 per step, up to 2^29 ticks/s,
  /// re-filing pending keys under the finer tick map.  The trigger is
  /// occupancy >= kAdaptOccupancy AND a single-tick sorted run of
  /// kCrowdedRun+ entries actually observed — occupancy alone cannot
  /// tell a same-instant pile-up from 10^5 events spread across the horizon,
  /// and for the spread case escalating only multiplies refill windows
  /// (a million-flow CBR fan-in holds ~10^6 live timers at ~3 events per
  /// base tick; finer ticks would be pure overhead there).  Pop order is
  /// exact (time, seq) at any resolution, so escalation never perturbs
  /// determinism.
  static constexpr double kBaseTicksPerSec = 131072.0;   // 2^17
  static constexpr double kMaxTicksPerSec = 536870912.0; // 2^29
  static constexpr std::size_t kAdaptOccupancy = 100000;
  static constexpr std::size_t kCrowdedRun = 4096;

  [[nodiscard]] Wheel::Tick tick_of(Time t) const {
    const double scaled = t * ticks_per_sec_;
    if (scaled <= 0.0) return 0;
    // Clamp far-future sentinels (kTimeInfinity) below the uint64 edge;
    // they order among themselves by exact time in the overflow list.
    constexpr double kMax = 9.0e18;
    if (scaled >= kMax) return static_cast<Wheel::Tick>(kMax);
    return static_cast<Wheel::Tick>(scaled);
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    // slot+1 keeps every valid id distinct from kInvalidEventId.
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }

  std::uint32_t acquire_slot() {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      // Keep the free list able to hold every slot without reallocating:
      // release_slot() must stay allocation-free even when a burst of
      // one-shot events drains and the freelist grows past any size seen
      // before (the soak test pins this with the counting allocator).
      free_.reserve(slots_.capacity());
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    assert(!slots_[slot].live && !slots_[slot].persistent);
    return slot;
  }

  /// Returns a slot to the free list, invalidating outstanding ids.  The
  /// caller accounts for live_.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.live = false;
    s.persistent = false;
    s.external = nullptr;
    ++s.gen;
    s.action.reset();
    free_.push_back(slot);
  }

  [[nodiscard]] bool key_live(const Key& k) const {
    const Slot& s = slots_[k.slot];
    return s.live && s.gen == k.gen;
  }

  void push_key(const Key& k) {
    if (live_ >= adapt_at_ && wheel_.max_run_length() >= kCrowdedRun &&
        ticks_per_sec_ < kMaxTicksPerSec) {
      escalate_resolution();
    }
    wheel_.insert(k, tick_of(k.time));
  }

  /// Raises the wheel resolution x64 and re-files every pending key under
  /// the finer tick map (occupancy crossed adapt_at_ while a crowded
  /// sorted run showed the ticks are genuinely too coarse).
  void escalate_resolution();

  /// Discards ordering keys whose slot has been fired/cancelled/re-armed
  /// since, leaving the earliest live key on top and returning it.
  /// Precondition: live_ > 0 (a live key exists).
  const Key* drop_stale();

  /// pop() after drop_stale(): removes the front key (known live) and
  /// retires/fires its slot.  Precondition: live_ > 0 and no stale key on
  /// top.
  Fired pop_front_live();

  std::vector<Slot> slots_;         // slab; addressed by index only
  std::vector<std::uint32_t> free_;
  Wheel wheel_;
  double ticks_per_sec_ = kBaseTicksPerSec;
  std::size_t adapt_at_ = kAdaptOccupancy;  // x64 after each escalation
  Time last_pop_time_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace ispn::sim
