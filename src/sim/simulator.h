// The simulation kernel: a clock plus an event queue.
//
// Usage:
//   Simulator sim;
//   sim.at(1.0, [&]{ ... });        // absolute time
//   sim.after(0.5, [&]{ ... });     // relative to now()
//   auto t = sim.make_timer([&]{ ... });  // persistent timer (sim/timer.h)
//   sim.run_until(600.0);
//
// The kernel is strictly single-threaded and deterministic: events at equal
// times fire in scheduling order.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/units.h"

namespace ispn::sim {

class Timer;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` (any void() callable; closures up to
  /// InlineAction::kCapacity bytes are stored without allocation) at
  /// absolute time `at`.  Scheduling in the past is a programming error;
  /// the action is clamped to fire at now().
  template <typename F>
  EventId at(Time at, F&& action) {
    assert(at >= now_ - 1e-12 && "scheduling into the past");
    return queue_.schedule(std::max(at, now_), std::forward<F>(action));
  }

  /// Schedules `action` `delay` seconds from now.
  template <typename F>
  EventId after(Duration delay, F&& action) {
    assert(delay >= 0 && "negative delay");
    return queue_.schedule(now_ + std::max(delay, 0.0),
                           std::forward<F>(action));
  }

  /// Cancels a pending event.  Returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Creates a persistent re-armable timer bound to `action`.  Defined in
  /// sim/timer.h (include it at call sites).
  template <typename F>
  Timer make_timer(F&& action);

  /// Runs until the queue drains or the clock passes `end`.  Events scheduled
  /// exactly at `end` still fire.  Returns the number of events processed.
  std::uint64_t run_until(Time end);

  /// Runs every event strictly before `end`, leaving events at `end`
  /// itself pending and NOT advancing the clock to `end`.  This is the
  /// shard-window primitive: a domain executes the half-open window
  /// [m*L, (m+1)*L) with run_before((m+1)*L) so that barrier-time events
  /// stay pending for the next round and cross-shard arrivals landing
  /// exactly on the boundary can still be scheduled (now() never passes
  /// the earliest such arrival).  Returns the number of events processed.
  std::uint64_t run_before(Time end);

  /// Runs until the queue drains.
  std::uint64_t run();

  /// Executes at most one pending event.  Returns false if none remain.
  bool step();

  /// True if no further events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Number of pending events (diagnostic).
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Total events processed so far (diagnostic).
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// The underlying event queue (timer plumbing, slab diagnostics).
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace ispn::sim
