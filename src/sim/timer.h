// A persistent, re-armable timer — the event core's handle for the
// simulator's recurring work.
//
// Every packet transmission, source emission and retry poll used to pay a
// full EventQueue::schedule() (slot acquire + InlineAction construction)
// and retire cycle per firing.  A Timer binds its action once, for life:
// the action is stored inside the Timer object (a stable address — Ports
// and Sources are not relocatable while running) and the event queue keeps
// only a slab slot pointing at it.  Re-arming is then a pure ordering-key
// insert; arming over a pending arm supersedes it atomically (generation
// bump), so the cancel+schedule dance disappears from the hot path.
//
// Lifetime rules:
//   * The Timer must outlive any pending arm and must be destroyed before
//     its Simulator (the usual member-order discipline: declare the
//     Simulator/Network first, the Timer-owning object after).
//   * Moving a Timer re-points the queue at the new address; the moved-from
//     Timer becomes empty.
//   * An action must not destroy its own Timer while running (re-arming
//     and disarming from inside the action are fine).
//
// pending() is false by the time the action runs, so a handler observing
// "not pending" can re-arm unconditionally.
//
// arm_after() with the same delay as the previous arm_after() (a source's
// emission period, a port's transmission time) files the key in the event
// queue's FIFO lane for that delay instead of its timing wheel; any other
// arm goes to the wheel, or, when it supersedes a pending arm that fires
// no later, waits behind that arm's key (EventQueue::arm_timer).  Firing
// order is (time, seq) either way.

#pragma once

#include <cassert>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace ispn::sim {

class Timer {
 public:
  /// An empty timer; usable only as a move-assignment target.
  Timer() noexcept = default;

  /// Binds `action` (any void() callable) for the life of the timer.
  template <typename F>
  Timer(Simulator& sim, F&& action)
      : sim_(&sim), action_(std::forward<F>(action)) {
    slot_ = sim_->queue().create_timer(&action_);
  }

  Timer(Timer&& other) noexcept
      : sim_(other.sim_),
        slot_(other.slot_),
        action_(std::move(other.action_)),
        expiry_(other.expiry_),
        last_delay_(other.last_delay_) {
    other.sim_ = nullptr;
    other.slot_ = kInvalidTimerSlot;
    if (sim_ != nullptr) sim_->queue().rebind_timer(slot_, &action_);
  }

  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      release();
      sim_ = other.sim_;
      slot_ = other.slot_;
      action_ = std::move(other.action_);
      expiry_ = other.expiry_;
      last_delay_ = other.last_delay_;
      other.sim_ = nullptr;
      other.slot_ = kInvalidTimerSlot;
      if (sim_ != nullptr) sim_->queue().rebind_timer(slot_, &action_);
    }
    return *this;
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { release(); }

  /// (Re-)arms for absolute time `at` (clamped to now, like
  /// Simulator::at).  A pending arm is superseded — no cancel needed.
  void arm_at(Time at) {
    assert(sim_ != nullptr && "arming an empty timer");
    assert(at >= sim_->now() - 1e-12 && "arming into the past");
    const Time prev = expiry_;
    expiry_ = at > sim_->now() ? at : sim_->now();
    sim_->queue().arm_timer(slot_, expiry_, prev);
  }

  /// (Re-)arms `delay` seconds from now.
  void arm_after(Duration delay) {
    assert(delay >= 0 && "negative delay");
    assert(sim_ != nullptr && "arming an empty timer");
    const Duration d = delay > 0 ? delay : 0.0;
    const Time prev = expiry_;
    expiry_ = sim_->now() + d;
    if (d == last_delay_) {
      sim_->queue().rearm_timer(slot_, expiry_, d, prev);
    } else {
      last_delay_ = d;
      sim_->queue().arm_timer(slot_, expiry_, prev);
    }
  }

  /// Disarms a pending arm.  Returns false if nothing was pending.
  bool disarm() {
    return sim_ != nullptr && sim_->queue().disarm_timer(slot_);
  }

  /// True while an arm is pending (false by the time the action runs).
  [[nodiscard]] bool pending() const {
    return sim_ != nullptr && sim_->queue().timer_armed(slot_);
  }

  /// The instant of the pending arm.  Meaningful only while pending().
  [[nodiscard]] Time expiry() const { return expiry_; }

  /// True if the timer is bound to a simulator (non-empty).
  [[nodiscard]] explicit operator bool() const { return sim_ != nullptr; }

 private:
  void release() {
    if (sim_ != nullptr) {
      sim_->queue().destroy_timer(slot_);
      sim_ = nullptr;
      slot_ = kInvalidTimerSlot;
    }
  }

  Simulator* sim_ = nullptr;
  TimerSlot slot_ = kInvalidTimerSlot;
  InlineAction action_;
  Time expiry_ = 0;
  Duration last_delay_ = -1;  ///< delay of the last arm_after(); -1: none
};

template <typename F>
Timer Simulator::make_timer(F&& action) {
  return Timer(*this, std::forward<F>(action));
}

}  // namespace ispn::sim
