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
//     mismatch when it surfaces).  The slab is split: each slot's 16-byte
//     state (generation, flags, timer action pointer) sits in one dense
//     array, so the liveness check every fired key makes reads four slots
//     per cache line, and one-shot actions sit in a parallel array.
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
//   * Beside the wheel sit kLanes fixed-delay FIFO lanes.  A timer
//     re-armed with the delay it used last time (a source's emission
//     period, a port's transmission time) appends its key to that delay's
//     lane: keys armed at now + d with a non-decreasing clock arrive in
//     (time, seq) order, so a lane is sorted by construction and needs no
//     bucketing, cascading or sorting.  One-off delays, absolute arms,
//     one-shot events and delays beyond a full lane table use the wheel.
//     The next event is the smallest (time, seq) among the wheel head and
//     the lane heads; keys compare as one 128-bit integer (time bits,
//     seq), exact because a non-negative double's bit pattern orders like
//     its value.
//   * A timer re-armed while pending, for no earlier than the key it has
//     on file, keeps that key (the carrier) and only records the new
//     (time, seq), consuming the seq as any arm does.  When the carrier
//     surfaces at the head it is dropped and the recorded key filed in
//     its place: nothing can fire between the two, since the carrier
//     orders first, so firing order is unchanged, while an RTO pushed
//     back on every ACK costs one wheel key per expiry instead of one per
//     re-arm.  Lane re-arms, disarms and destruction cancel the deferral.
//   * fire() is the one dispatch loop: it skims stale keys and runs each
//     event in place — a persistent timer through its Timer-owned action,
//     a one-shot after moving its action out of the retired slot.
//
// Generations are 32-bit and wrap after 2^32 schedules of one slot; with a
// handful of outstanding ids per slot (ports hold at most one retry timer)
// a stale id matching a wrapped generation is not a practical concern.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_action.h"
#include "sim/units.h"
#include "util/ring.h"
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
/// cancel, and timing-wheel plus fixed-delay-lane ordering.  Not
/// thread-safe: the simulator is single-threaded by design.
class EventQueue {
 public:
  /// What fire() advances before each action runs: the firing event's
  /// time and the count of events fired.  The Simulator owns one.
  struct Clock {
    Time now = 0;
    std::uint64_t processed = 0;
  };

  EventQueue() { lane_heads_.fill(kNoKey); }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` (any void() callable) to run at absolute time `at`.
  /// Returns a handle that can later be passed to cancel().
  template <typename F>
  EventId schedule(Time at, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    actions_[slot] = InlineAction(std::forward<F>(action));
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

  /// Fires live events in exact (time, seq) order while the earliest is at
  /// or before `end` (strictly before when `inclusive` is false), at most
  /// `limit` of them, and returns how many fired.  Before each action
  /// runs, `clock.now` is set to its time and `clock.processed` counts
  /// it, so the action reads an exact clock and count.  A one-shot's
  /// action is moved out and its slot retired first; a persistent timer
  /// is marked idle (so it may re-arm) and its Timer-owned action invoked
  /// in place.
  std::uint64_t fire(Time end, bool inclusive, std::uint64_t limit,
                     Clock& clock);

  // --- persistent timers (wrapped by sim::Timer) ---------------------------

  /// Acquires a slot whose action lives at `*action` (a stable address
  /// owned by the caller) for the life of the timer.
  TimerSlot create_timer(InlineAction* action);

  /// Re-points the slot's action (Timer move support).
  void rebind_timer(TimerSlot t, InlineAction* action);

  /// Releases the slot; a pending arm is cancelled.
  void destroy_timer(TimerSlot t);

  /// (Re-)arms the timer for absolute time `at`.  A pending arm is
  /// superseded atomically, with no cancel round-trip: when the key on
  /// file is no later than `at` it stays filed and this arm is deferred
  /// behind it, else a new key is filed and the old one goes stale
  /// (generation bump).  `prev` is the time of the pending arm, read only
  /// while one is pending.
  void arm_timer(TimerSlot t, Time at, Time prev);

  /// arm_timer() for `at` = now + `delay`, where `delay` repeats the
  /// timer's previous relative arm: the key joins `delay`'s lane when one
  /// serves it or can be claimed, else arm_timer() takes it.
  /// Precondition: `at` is the caller's clock plus `delay`, and that clock
  /// never runs backwards.
  void rearm_timer(TimerSlot t, Time at, Duration delay, Time prev) {
    assert(t < slots_.size() && slots_[t].persistent);
    Slot& s = slots_[t];
    std::uint8_t i = s.lane;
    if (i >= lanes_used_ || lanes_[i].delay != delay) {
      i = claim_lane(s, delay);
      if (i == kLanes) {
        arm_timer(t, at, prev);
        return;
      }
    }
    const Key k{at, next_seq_++, t, supersede(s)};
    util::Ring<Key>& keys = lanes_[i].keys;
    assert(keys.empty() || !(k.order() < keys.back().order()));
    if (keys.empty()) {
      lane_heads_[i] = k.order();
    } else if (keys.size() == keys.capacity() && keys.size() >= kLaneJump) {
      keys.reserve(std::max(2 * keys.size(), live_));
    }
    keys.push_back(k);
    ++lane_inserts_;
  }

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

  /// Scheduled keys that went to a fixed-delay lane instead of the wheel
  /// (diagnostic; lane_inserts() / total_scheduled() is the lane share).
  [[nodiscard]] std::uint64_t lane_inserts() const { return lane_inserts_; }

  /// Timer arms deferred behind the key already on file instead of filing
  /// a key of their own (diagnostic).
  [[nodiscard]] std::uint64_t deferred_arms() const { return deferred_arms_; }

  /// Slab capacity / recycled-slot count (diagnostics; tests pin slot
  /// reuse and leak-freedom through these).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_slots() const { return free_.size(); }

  /// Current wheel tick resolution (escalates under load; diagnostic).
  [[nodiscard]] double ticks_per_sec() const { return ticks_per_sec_; }

 private:
  /// Number of fixed-delay lanes: a constant, scanned on every fire.
  static constexpr std::uint8_t kLanes = 8;
  /// A full lane doubles, but one already this long grows straight to the
  /// live event count: a population of timers moving off the wheel (a
  /// million CBR sources re-arming over one period) then allocates once
  /// instead of doubling through the period, while a lane that few timers
  /// share stays small.
  static constexpr std::size_t kLaneJump = 1024;

  /// A slot's state; its one-shot payload is actions_[slot].
  struct Slot {
    InlineAction* external = nullptr;  ///< persistent payload (Timer-owned)
    std::uint32_t gen = 1;  ///< bumped on every retire / (re-)arm
    bool live = false;      ///< one-shot pending / timer armed
    bool persistent = false;
    std::uint8_t lane = kLanes;  ///< lane of the timer's last rearm (hint)
    bool deferred = false;  ///< the filed key carries deferrals_[slot]
  };
  /// A timer's deferred arm: the key on file (the carrier, at `carrier`)
  /// fires no later, and files (at, seq) when it surfaces.
  struct Deferral {
    Time carrier = 0;
    Time at = 0;
    std::uint64_t seq = 0;
  };
  /// (time, seq) as one integer: time bits high, seq low.
  using Order = unsigned __int128;
  static constexpr Order kNoKey = ~Order{0};  ///< above every key's order
  static Time time_of(Order o) {
    return std::bit_cast<Time>(static_cast<std::uint64_t>(o >> 64));
  }
  struct Key {
    Time time = 0;          // non-negative: its bit pattern orders like it
    std::uint64_t seq = 0;  // global tie-break: same-time FIFO
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
    [[nodiscard]] Order order() const {
      return Order{std::bit_cast<std::uint64_t>(time)} << 64 | seq;
    }
  };
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      return a.order() < b.order();
    }
  };
  using Wheel = util::TimingWheel<Key, KeyLess>;

  /// The keys of timers re-armed `delay` after their arm instant, in
  /// (time, seq) order.
  struct Lane {
    Duration delay = -1;  ///< -1 until first claimed
    util::Ring<Key> keys;
  };

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
      actions_.emplace_back();
      if (!deferrals_.empty()) deferrals_.resize(slots_.capacity());
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
    s.deferred = false;
    s.external = nullptr;
    ++s.gen;
    actions_[slot].reset();
    free_.push_back(slot);
  }

  void push_key(Key k) {
    if (live_ >= adapt_at_ && wheel_.max_run_length() >= kCrowdedRun &&
        ticks_per_sec_ < kMaxTicksPerSec) {
      escalate_resolution();
    }
    if (wheel_.reclaim_due()) {
      // Superseded, disarmed and cancelled keys wait in the wheel until
      // their tick passes; drop them before the node pool grows to hold
      // them (a deferral's carrier is live and stays).
      wheel_.reclaim([this](const Key& f) {
        const Slot& s = slots_[f.slot];
        return !s.live || s.gen != f.gen;
      });
    }
    k.time += 0.0;  // -0.0 -> +0.0, whose bits order like the value
    wheel_.insert(k, tick_of(k.time));
  }

  /// Raises the wheel resolution x64 and re-files every pending key under
  /// the finer tick map (occupancy crossed adapt_at_ while a crowded
  /// sorted run showed the ticks are genuinely too coarse).
  void escalate_resolution();

  /// Bumps the timer's generation (any pending key goes stale, a
  /// deferral with it) and marks it armed.
  std::uint32_t supersede(Slot& s) {
    ++s.gen;
    s.deferred = false;
    if (!s.live) {
      s.live = true;
      ++live_;
    }
    return s.gen;
  }

  /// The index of the lane serving `delay` when the slot's lane hint
  /// misses: a lane already serving it, else an empty or unclaimed lane
  /// claimed for it, else kLanes (every lane busy with other delays).
  /// Records the answer as the slot's hint.
  std::uint8_t claim_lane(Slot& s, Duration delay);

  /// Removes lane `i`'s front key and refreshes its cached head.
  void pop_lane(std::uint8_t i) {
    Lane& lane = lanes_[i];
    lane.keys.pop_front();
    lane_heads_[i] = lane.keys.empty() ? kNoKey : lane.keys.front().order();
  }

  /// The earliest live key ordered below `stop` among the lane heads and
  /// the wheel head, or nullptr; stale keys met on the way are discarded.
  /// `from` is set to the index of the lane holding it (kLanes: the
  /// wheel).
  const Key* head(Order stop, Wheel::Tick stop_tick, std::uint8_t& from);

  std::vector<Slot> slots_;         // slab; addressed by index only
  std::vector<InlineAction> actions_;  // one-shot payloads, by slot
  /// Deferred arms, by slot: empty until the first deferral, then kept at
  /// the slab's capacity (a run that never defers pays nothing).
  std::vector<Deferral> deferrals_;
  std::vector<std::uint32_t> free_;
  Wheel wheel_;
  std::array<Lane, kLanes> lanes_;
  /// lanes_[i]'s front key order (kNoKey when empty): what the fire loop
  /// scans, so picking the next event touches no ring.
  std::array<Order, kLanes> lane_heads_;
  std::uint8_t lanes_used_ = 0;  // lanes_[0, lanes_used_) were claimed
  std::uint64_t lane_inserts_ = 0;
  std::uint64_t deferred_arms_ = 0;
  double ticks_per_sec_ = kBaseTicksPerSec;
  std::size_t adapt_at_ = kAdaptOccupancy;  // x64 after each escalation
  Time last_pop_time_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace ispn::sim
