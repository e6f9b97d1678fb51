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

const EventQueue::Key* EventQueue::drop_stale() {
  for (;;) {
    const Key* k = wheel_.peek();
    assert(k != nullptr && "live_ > 0 but wheel empty");
    if (key_live(*k)) return k;
    wheel_.pop_front();
  }
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

Time EventQueue::next_time() const {
  assert(live_ > 0);
  // Skimming stale keys (and advancing the wheel cursor) mutates only the
  // ordering structure, not observable state; the first live key
  // determines the next time.
  return const_cast<EventQueue*>(this)->drop_stale()->time;
}

EventQueue::Fired EventQueue::pop() {
  drop_stale();
  return pop_front_live();
}

bool EventQueue::pop_if_before(Time end, bool inclusive, Fired& out) {
  if (live_ == 0) return false;
  const Time t = drop_stale()->time;
  if (inclusive ? t > end : t >= end) return false;
  out = pop_front_live();
  return true;
}

EventQueue::Fired EventQueue::pop_front_live() {
  const Key k = wheel_.pop_front();
  assert(key_live(k));
  // Overlap upcoming events' slab-slot DRAM misses with the current
  // event's execution: at a million pending timers the slab is far beyond
  // cache and the very next access to it is the key_live() / dispatch
  // load for the entry now at the run head.  Two entries deep: the +1 slot
  // is needed within one event (~hundreds of ns), the +2 prefetch gets two
  // full events of lead.  Pure hints; ordering and observable state are
  // untouched.
  if (const Key* nk = wheel_.peek_ready()) {
    // The hint one pop ago covered nk's slot line, so reading it now is
    // usually cache-warm; chase one level deeper and warm the persistent
    // action it will invoke (the timer callback living inside a source
    // object — cold at million-flow scale).
    const Slot& ns = slots_[nk->slot];
    if (ns.persistent && ns.external != nullptr) {
      __builtin_prefetch(ns.external);
    }
    // And hint the slot after it, giving that line a full event of lead
    // before its own read above.
    if (const Key* nk2 = wheel_.peek_ready(1)) {
      __builtin_prefetch(&slots_[nk2->slot]);
    }
  }
  Slot& s = slots_[k.slot];
  last_pop_time_ = k.time;
  Fired fired;
  fired.time = k.time;
  if (s.persistent) {
    // Marked idle *before* the action runs so the action can re-arm; the
    // action itself lives in the Timer object, immune to slab growth.
    s.live = false;
    fired.in_place = s.external;
  } else {
    fired.action = std::move(s.action);
    release_slot(k.slot);
  }
  --live_;
  return fired;
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

void EventQueue::arm_timer(TimerSlot t, Time at) {
  assert(t < slots_.size() && slots_[t].persistent);
  Slot& s = slots_[t];
  ++s.gen;  // supersedes any pending key atomically
  if (!s.live) {
    s.live = true;
    ++live_;
  }
  push_key(Key{at, next_seq_++, t, s.gen});
}

bool EventQueue::disarm_timer(TimerSlot t) {
  assert(t < slots_.size() && slots_[t].persistent);
  Slot& s = slots_[t];
  if (!s.live) return false;
  s.live = false;
  ++s.gen;  // pending key goes stale
  --live_;
  return true;
}

}  // namespace ispn::sim
