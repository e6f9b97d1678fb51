#include "sim/event_queue.h"

#include <cassert>

namespace ispn::sim {

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot_part = id >> 32;
  if (slot_part == 0 || slot_part > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(slot_part - 1);
  const auto gen = static_cast<std::uint32_t>(id);
  Slot& s = slots_[slot];
  // Persistent timer slots are managed through sim::Timer only; a stale
  // one-shot id whose slot was recycled into a timer must not be able to
  // tear the timer down.
  if (s.persistent) return false;
  if (!s.live || s.gen != gen) return false;  // already fired or cancelled
  release_slot(slot);
  --live_;
  return true;
}

void EventQueue::escalate_resolution() {
  ticks_per_sec_ *= 64.0;  // one escalation step finer
  adapt_at_ *= 64;         // next step only after a comparable pile-up
  // scratch is local: escalations happen O(log) times per run, never on
  // the steady-state path, so this allocation is outside the zero-alloc
  // window the soak tests pin.
  std::vector<Key> scratch;
  wheel_.drain_into(scratch, tick_of(last_pop_time_));
  for (const Key& k : scratch) {
    // Dead keys re-file too; they are skimmed as usual when they surface.
    wheel_.insert(k, tick_of(k.time));
  }
}

// Inlined into fire(): one call per event is a measurable share of the
// dispatch cost.
[[gnu::always_inline]] inline const EventQueue::Key* EventQueue::head(
    Order stop, Wheel::Tick stop_tick, std::uint8_t& from) {
  for (;;) {
    std::uint8_t lane = kLanes;
    Order best = stop;
    for (std::uint8_t i = 0; i < lanes_used_; ++i) {
      if (lane_heads_[i] < best) {
        best = lane_heads_[i];
        lane = i;
      }
    }
    const Key* w = wheel_.peek_ready();
    if (w == nullptr && !wheel_.empty()) {
      // Peek no further than the lane winner's tick, so the wheel's cursor
      // never runs past the next event (see TimingWheel::peek_until).  It
      // may still stand ahead of the clock after next_time() or a slice
      // that fired nothing; keys filed behind it stay visible.
      w = wheel_.peek_until(lane < kLanes ? tick_of(time_of(best))
                                          : stop_tick);
    }
    const Key* k = nullptr;
    if (w != nullptr && w->order() < best) {
      k = w;
      lane = kLanes;
    } else if (lane < kLanes) {
      k = &lanes_[lane].keys.front();
    } else {
      return nullptr;
    }
    Slot& s = slots_[k->slot];
    const bool live = s.live && s.gen == k->gen;
    if (live && !s.deferred) {
      from = lane;
      return k;
    }
    // Fired, cancelled or superseded since it was filed, or a carrier.
    const std::uint32_t slot = k->slot;
    if (lane < kLanes) {
      pop_lane(lane);
    } else {
      wheel_.drop_front();
    }
    if (live) {
      // The deferred arm orders after the carrier, so nothing that fired
      // before now could have followed it: file it.
      s.deferred = false;
      const Deferral& d = deferrals_[slot];
      push_key(Key{d.at, d.seq, slot, s.gen});
    }
  }
}

Time EventQueue::next_time() const {
  assert(live_ > 0);
  // Skimming stale keys (and advancing the wheel cursor) mutates only the
  // ordering structures, not observable state; the first live key
  // determines the next time.
  std::uint8_t from = kLanes;
  return const_cast<EventQueue*>(this)
      ->head(kNoKey, ~Wheel::Tick{0}, from)
      ->time;
}

std::uint64_t EventQueue::fire(Time end, bool inclusive, std::uint64_t limit,
                               Clock& clock) {
  if (!(end >= 0)) return 0;  // every key is at a non-negative time
  // A key fires while its order is below `stop`: seqs start at 1, so
  // (end, 0) admits nothing at `end` and (end, max) everything.
  const Order stop = Key{end + 0.0, inclusive ? ~std::uint64_t{0} : 0, 0, 0}
                         .order();
  const Wheel::Tick stop_tick = tick_of(end);
  std::uint64_t n = 0;
  while (n < limit && live_ > 0) {
    std::uint8_t from = kLanes;
    const Key* h = head(stop, stop_tick, from);
    if (h == nullptr) break;
    const Key k = *h;
    // Overlap upcoming events' slab-slot DRAM misses with this event's
    // execution: at a million pending timers the slab is far beyond cache
    // and the next access to it is the liveness / dispatch load for the
    // key next in line behind this one (in its lane, or in the wheel's
    // sorted run).  The hint one event ago covered `next`'s slot line, so
    // reading it now is usually cache-warm; warm the action it will invoke
    // (a timer callback inside a source object, or a one-shot payload),
    // and give the slot after it a full event of lead.  Pure hints;
    // ordering and observable state are untouched.
    const Key* next = nullptr;
    const Key* after = nullptr;
    if (from < kLanes) {
      pop_lane(from);
      const util::Ring<Key>& keys = lanes_[from].keys;
      if (keys.size() > 0) next = &keys[0];
      if (keys.size() > 1) after = &keys[1];
    } else {
      wheel_.drop_front();
      next = wheel_.peek_ready();
      after = wheel_.peek_ready(1);
    }
    if (next != nullptr) {
      const Slot& ns = slots_[next->slot];
      __builtin_prefetch(ns.persistent ? ns.external : &actions_[next->slot]);
      if (after != nullptr) __builtin_prefetch(&slots_[after->slot]);
    }
    last_pop_time_ = k.time;
    clock.now = k.time;
    ++clock.processed;
    ++n;
    --live_;
    Slot& s = slots_[k.slot];
    if (s.persistent) {
      // Marked idle *before* the action runs so the action can re-arm; the
      // action itself lives in the Timer object, immune to slab growth.
      s.live = false;
      (*s.external)();
    } else {
      // Moved out first: the slot is retired (its id goes stale) before
      // the action runs, and the action may grow the slab.
      EventAction action = std::move(actions_[k.slot]);
      release_slot(k.slot);
      action();
    }
  }
  return n;
}

TimerSlot EventQueue::create_timer(InlineAction* action) {
  assert(action != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.persistent = true;
  s.external = action;
  return slot;
}

void EventQueue::rebind_timer(TimerSlot t, InlineAction* action) {
  assert(t < slots_.size() && slots_[t].persistent && action != nullptr);
  slots_[t].external = action;
}

void EventQueue::destroy_timer(TimerSlot t) {
  assert(t < slots_.size() && slots_[t].persistent);
  if (slots_[t].live) --live_;  // pending key goes stale via the gen bump
  release_slot(t);
}

void EventQueue::arm_timer(TimerSlot t, Time at, Time prev) {
  assert(t < slots_.size() && slots_[t].persistent);
  Slot& s = slots_[t];
  if (s.live) {
    const Time filed = s.deferred ? deferrals_[t].carrier : prev;
    if (filed <= at) {
      if (deferrals_.empty()) deferrals_.resize(slots_.capacity());
      Deferral& d = deferrals_[t];
      if (!s.deferred) {
        s.deferred = true;
        d.carrier = filed;
      }
      d.at = at;
      d.seq = next_seq_++;
      ++deferred_arms_;
      return;
    }
  }
  const std::uint32_t gen = supersede(s);
  push_key(Key{at, next_seq_++, t, gen});
}

std::uint8_t EventQueue::claim_lane(Slot& s, Duration delay) {
  std::uint8_t pick = kLanes;
  for (std::uint8_t i = 0; i < lanes_used_; ++i) {
    if (lanes_[i].delay == delay) return s.lane = i;
    if (pick == kLanes && lanes_[i].keys.empty()) pick = i;
  }
  if (pick == kLanes) {
    if (lanes_used_ == kLanes) return kLanes;
    pick = lanes_used_++;
  }
  // An empty lane carries no ordering obligation to its old delay.
  lanes_[pick].delay = delay;
  return s.lane = pick;
}

bool EventQueue::disarm_timer(TimerSlot t) {
  assert(t < slots_.size() && slots_[t].persistent);
  Slot& s = slots_[t];
  if (!s.live) return false;
  s.live = false;
  s.deferred = false;
  ++s.gen;  // pending key goes stale
  --live_;
  return true;
}

}  // namespace ispn::sim
