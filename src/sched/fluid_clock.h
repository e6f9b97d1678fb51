// The fluid GPS virtual clock V(t), shared by every WFQ-family discipline.
//
// The fluid reference system serves each backlogged flow α at rate
// C·φ_α / Σ_{β∈B(t)} φ_β, so V(t) is piecewise linear with slope
// C / Σ_{β∈B(t)} φ_β and is frozen while the fluid system is idle.
// Advancing V exactly requires walking the fluid *departure epochs* — the
// instants backlogged flows empty in the fluid system — re-evaluating the
// slope at each ("iterated deletion", Demers–Keshav–Shenker /
// Parekh–Gallager).  That advance loop used to be copy-pasted between
// wfq.cc and unified.cc; it lives here exactly once.
//
// State per backlogged flow is one re-keyable entry in an indexed min-heap
// (keyed by the flow's largest finish tag, ties by id) plus its weight in
// a dense vector.  The slope and its reciprocal are recomputed only when
// the backlogged-weight sum changes (slope_dirty_), so the steady-state
// advance performs no division; stamp() takes the caller's cached
// 1/weight so tag math is division-free too.
//
// Flow 0.  UnifiedScheduler's pseudo-flow 0 carries every predicted and
// datagram packet, so it is stamped on nearly every arrival.  Its
// departure epoch and weight live in dedicated members beside the heap:
// its stamp is two stores instead of a heap re-key, and the next epoch is
// the smaller of its finish tag and the heap top.  At an epoch it shares
// with heap flows, its weight leaves the sum first — the order a heap
// keyed on (tag, id) gives flow 0 as id 0 — so V(t) rounds exactly as it
// would with flow 0 in the heap.  Flow 0 is also the only flow whose
// weight may change while it is backlogged: its weight is μ − Σ r_α,
// which moves whenever a guaranteed flow is admitted or torn down, and
// reweight_flow0() changes the V(t) slope from that instant.  Heap flows (every WfqScheduler flow and the
// unified guaranteed flows) keep their arrival-time weight for the whole
// backlog.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/units.h"
#include "util/indexed_heap.h"

namespace ispn::sched {

class FluidClock {
 public:
  explicit FluidClock(sim::Rate link_rate) : link_rate_(link_rate) {
    assert(link_rate_ > 0);
  }

  /// Stamps one arrival for heap flow `id`:
  ///
  ///     S = max(V, last_finish),   F = S + size · inv_weight
  ///
  /// marks the flow fluid-backlogged with `weight` if it was idle, and
  /// re-keys its departure epoch to F.  Precondition: advance(now) has
  /// been called for the arrival instant.  Returns F.
  double stamp(std::uint32_t id, double last_finish, sim::Bits size,
               double weight, double inv_weight) {
    const double start = std::max(vtime_, last_finish);
    const double finish = start + size * inv_weight;
    if (!fluid_.contains(id)) {
      if (id >= weights_.size()) weights_.resize(id + 1, 0.0);
      weights_[id] = weight;
      active_weight_ += weight;
      slope_dirty_ = true;
    }
    fluid_.upsert(id, finish);
    return finish;
  }

  /// stamp() for flow 0.
  double stamp_flow0(double last_finish, sim::Bits size, double weight,
                     double inv_weight) {
    const double start = std::max(vtime_, last_finish);
    const double finish = start + size * inv_weight;
    if (!flow0_backlogged_) {
      flow0_backlogged_ = true;
      flow0_weight_ = weight;
      active_weight_ += weight;
      slope_dirty_ = true;
    }
    flow0_finish_ = finish;
    return finish;
  }

  /// Advances V(t) from the last update instant to `now`, processing the
  /// fluid departure epochs in between.
  void advance(sim::Time now) {
    while (last_update_ < now) {
      if (idle()) {
        // Fluid system idle: V frozen.
        last_update_ = now;
        return;
      }
      assert(active_weight_ > 0);
      if (slope_dirty_) {
        // Memoised on the weight sum: a lone backlogged flow (or any
        // workload whose sum returns to a previous value) re-dirties the
        // slope every epoch without actually changing it — skip the
        // divisions then.
        if (active_weight_ != slope_weight_) {
          slope_weight_ = active_weight_;
          slope_ = link_rate_ / active_weight_;
          inv_slope_ = active_weight_ / link_rate_;
        }
        slope_dirty_ = false;
      }
      double next_finish = flow0_backlogged_ ? flow0_finish_ : kNever;
      if (!fluid_.empty()) {
        next_finish = std::min(next_finish, fluid_.top().key);
      }
      const sim::Time reach = last_update_ + (next_finish - vtime_) * inv_slope_;
      if (reach <= now) {
        // A flow empties in the fluid system before `now`: flow 0's
        // weight leaves the sum first, then heap flows' in id order.
        vtime_ = next_finish;
        last_update_ = reach;
        if (flow0_backlogged_ && flow0_finish_ <= vtime_) {
          flow0_backlogged_ = false;
          active_weight_ -= flow0_weight_;
          slope_dirty_ = true;
        }
        while (!fluid_.empty() && fluid_.top().key <= vtime_) {
          const std::uint32_t id = fluid_.pop().id;
          active_weight_ -= weights_[id];
          slope_dirty_ = true;
        }
        if (idle()) active_weight_ = 0;  // absorb fp residue
      } else {
        vtime_ += slope_ * (now - last_update_);
        last_update_ = now;
      }
    }
  }

  /// Changes flow 0's weight while it is backlogged: the active-weight
  /// sum (and hence the V(t) slope) changes from this instant.  No-op
  /// when flow 0 is fluid-idle — the next stamp_flow0() carries the
  /// weight.
  void reweight_flow0(double new_weight) {
    if (!flow0_backlogged_) return;
    active_weight_ += new_weight - flow0_weight_;
    flow0_weight_ = new_weight;
    slope_dirty_ = true;
  }

  /// Force-removes heap flow `id` from the fluid system (service
  /// teardown).
  void retire(std::uint32_t id) {
    if (!fluid_.contains(id)) return;
    fluid_.erase(id);
    active_weight_ -= weights_[id];
    slope_dirty_ = true;
    if (idle()) active_weight_ = 0;  // absorb fp residue
  }

  /// Re-rates the link (capacity brown-out / restore): V(t)'s slope uses
  /// the new C from this instant.  Call only with advance(now) done for
  /// the change instant, so the old slope covered exactly [last, now].
  /// Poisoning the memoised slope weight forces the next advance() to
  /// recompute even though the weight SUM is unchanged.
  void set_link_rate(sim::Rate rate) {
    assert(rate > 0);
    link_rate_ = rate;
    slope_weight_ = -1.0;
    slope_dirty_ = true;
  }

  [[nodiscard]] sim::Rate link_rate() const { return link_rate_; }

  /// True while heap flow `id` is backlogged in the fluid system.
  [[nodiscard]] bool backlogged(std::uint32_t id) const {
    return fluid_.contains(id);
  }

  /// True while flow 0 is backlogged in the fluid system.
  [[nodiscard]] bool flow0_backlogged() const { return flow0_backlogged_; }

  /// V at the last advance() instant.
  [[nodiscard]] double vtime() const { return vtime_; }

  /// Sum of weights of fluid-backlogged flows (diagnostic).
  [[nodiscard]] double active_weight() const { return active_weight_; }

  [[nodiscard]] bool idle() const {
    return !flow0_backlogged_ && fluid_.empty();
  }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  sim::Rate link_rate_;

  double vtime_ = 0;
  sim::Time last_update_ = 0;
  double active_weight_ = 0;
  double slope_ = 0;         // link_rate / active_weight_
  double inv_slope_ = 0;     // active_weight_ / link_rate
  double slope_weight_ = 0;  // weight sum slope_/inv_slope_ were computed at
  bool slope_dirty_ = true;
  util::IndexedDaryHeap<double, std::less<double>> fluid_;
  std::vector<double> weights_;  // weight each backlogged id contributed
  bool flow0_backlogged_ = false;
  double flow0_finish_ = 0;  // flow 0's departure epoch while backlogged
  double flow0_weight_ = 0;  // the weight flow 0 contributes while backlogged
};

}  // namespace ispn::sched
