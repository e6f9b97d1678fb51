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
// Flow-0 policy.  The two historical copies diverged in how they treated
// a flow whose weight changes *while it is fluid-backlogged*:
// WfqScheduler's flows have weights frozen for the duration of a backlog
// (add_flow() refuses to re-weight a backlogged flow), whereas
// UnifiedScheduler's pseudo-flow 0 is re-weighted in place whenever a
// guaranteed flow is admitted or torn down (its weight is μ − Σ r_α).
// That divergence is now an explicit constructor knob instead of two
// subtly different advance loops:
//
//   Flow0Policy::kPinned   — reweight() of a backlogged flow is deferred:
//                            the active-weight sum keeps the arrival-time
//                            weight until the flow next goes fluid-idle
//                            (WfqScheduler semantics).
//   Flow0Policy::kTracked  — reweight() adjusts the active-weight sum
//                            immediately, changing the V(t) slope from
//                            this instant (UnifiedScheduler's flow 0).
//
// test_fluid_clock.cc pins both behaviours and their divergence.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/units.h"
#include "util/indexed_heap.h"

namespace ispn::sched {

class FluidClock {
 public:
  enum class Flow0Policy {
    kPinned,   ///< backlogged flows keep their arrival-time weight (WFQ)
    kTracked,  ///< reweight() takes effect immediately (unified's flow 0)
  };

  explicit FluidClock(sim::Rate link_rate,
                      Flow0Policy policy = Flow0Policy::kPinned)
      : link_rate_(link_rate), policy_(policy) {
    assert(link_rate_ > 0);
  }

  /// Stamps one arrival for flow `id`:
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

  /// Advances V(t) from the last update instant to `now`, processing the
  /// fluid departure epochs in between.
  void advance(sim::Time now) {
    while (last_update_ < now) {
      if (fluid_.empty()) {
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
      const double next_finish = fluid_.top().key;
      const sim::Time reach = last_update_ + (next_finish - vtime_) * inv_slope_;
      if (reach <= now) {
        // A flow empties in the fluid system before `now`.
        vtime_ = next_finish;
        last_update_ = reach;
        while (!fluid_.empty() && fluid_.top().key <= vtime_) {
          const std::uint32_t id = fluid_.pop().id;
          active_weight_ -= weights_[id];
          slope_dirty_ = true;
        }
        if (fluid_.empty()) active_weight_ = 0;  // absorb fp residue
      } else {
        vtime_ += slope_ * (now - last_update_);
        last_update_ = now;
      }
    }
  }

  /// Changes the weight of flow `id` while it is backlogged.  Under
  /// kTracked the active-weight sum (and hence the V(t) slope) changes
  /// immediately; under kPinned the call is a no-op until the flow next
  /// goes fluid-idle (a subsequent stamp() picks up the caller's new
  /// weight).  No-op when the flow is fluid-idle — there is nothing to
  /// track; the next stamp() carries the weight.
  void reweight(std::uint32_t id, double new_weight) {
    if (policy_ != Flow0Policy::kTracked) return;
    if (!fluid_.contains(id)) return;
    active_weight_ += new_weight - weights_[id];
    weights_[id] = new_weight;
    slope_dirty_ = true;
  }

  /// Force-removes flow `id` from the fluid system (service teardown).
  void retire(std::uint32_t id) {
    if (!fluid_.contains(id)) return;
    fluid_.erase(id);
    active_weight_ -= weights_[id];
    slope_dirty_ = true;
    if (fluid_.empty()) active_weight_ = 0;  // absorb fp residue
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

  /// True while `id` is backlogged in the fluid system.
  [[nodiscard]] bool backlogged(std::uint32_t id) const {
    return fluid_.contains(id);
  }

  /// V at the last advance() instant.
  [[nodiscard]] double vtime() const { return vtime_; }

  /// Sum of weights of fluid-backlogged flows (diagnostic).
  [[nodiscard]] double active_weight() const { return active_weight_; }

  [[nodiscard]] bool idle() const { return fluid_.empty(); }

 private:
  sim::Rate link_rate_;
  Flow0Policy policy_;

  double vtime_ = 0;
  sim::Time last_update_ = 0;
  double active_weight_ = 0;
  double slope_ = 0;         // link_rate / active_weight_
  double inv_slope_ = 0;     // active_weight_ / link_rate
  double slope_weight_ = 0;  // weight sum slope_/inv_slope_ were computed at
  bool slope_dirty_ = true;
  util::IndexedDaryHeap<double, std::less<double>> fluid_;
  std::vector<double> weights_;  // weight each backlogged id contributed
};

}  // namespace ispn::sched
