// The unified CSZ scheduling algorithm (paper §7).
//
// Structure at each output port:
//
//   WFQ (exact GPS virtual time)
//    ├── guaranteed flow α1, clock rate r_α1        (isolation)
//    ├── guaranteed flow α2, clock rate r_α2
//    ├── ...
//    └── pseudo-flow 0,  rate  r_0 = μ − Σ r_α      (sharing world)
//         ├── priority level 0  : FIFO+             (Predicted, tightest D)
//         ├── ...
//         ├── priority level K−1: FIFO+             (Predicted, loosest D)
//         └── datagram level    : FIFO              (best effort)
//
// WFQ tags decide *when* flow 0 may transmit; the internal priority/FIFO+
// structure decides *which* flow-0 packet goes.  Guaranteed flows' own tags
// attach to their packets exactly as in WfqScheduler.
//
// Buffer policy (DESIGN.md §4): the port buffer (200 packets) is shared;
// when it overflows, the victim is pushed out of the lowest-priority
// backlogged class (datagram first), never a guaranteed queue unless only
// guaranteed packets remain.  The paper reports guaranteed bounds holding
// while datagram TCP load suffers ~0.1% drops, which entails protecting
// real-time queues from elastic overload.
//
// Hot-path layout mirrors WfqScheduler: guaranteed per-flow state and the
// predicted-priority map are dense vectors indexed by compact slots
// (util::SlotMap remaps flow ids to the lowest free slot on first sight,
// so per-link memory scales with registered flows, never max(FlowId)),
// per-flow FIFOs are power-of-two rings, and the guaranteed flows' fluid
// ordering (inside the shared sched::FluidClock) and head ordering are
// indexed min-heaps holding exactly one re-keyable entry per flow, with
// the guaranteed flow in slot s as id s.  Pseudo-flow 0, which nearly
// every packet of a predicted/datagram mix belongs to, is in neither
// heap: its head tag is the front of its tag ring, compared with the
// guaranteed heap's top on each dequeue, and FluidClock keeps its
// departure epoch in dedicated members.  Flow 0's weight is μ − Σ r_α
// and changes in place when guaranteed flows are admitted or torn down
// (FluidClock::reweight_flow0).  FIFO+ class queues are flat heaps of POD
// keys with packets parked in a slab.
//
// Ties at equal finish tags order flow 0 first, then guaranteed flows by
// slot (first-registration order — itself deterministic, since flow
// registration sequences are a function of the spec).
//
// Hierarchical mode (Config::hierarchical): the scheduler keeps NO
// per-flow state for predicted or datagram traffic — packets carry their
// class in (service, priority) as stamped at the edge, and the inner
// scheduler sees only the bounded aggregate set {guaranteed flows,
// K predicted classes, datagram}.  set_predicted_priority /
// remove_predicted become no-ops, so per-flow predicted state shrinks to
// the edge's policing + stats record.  The semantic difference from the
// flat path: per-hop class reassignment (a different priority at each
// hop) is not available — every hop classifies by the packet's stamped
// priority.  Flat mode stays the default and byte-identical.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/fluid_clock.h"
#include "sched/keys.h"
#include "sched/packet_slab.h"
#include "sched/scheduler.h"
#include "stats/ewma.h"
#include "util/dary_heap.h"
#include "util/indexed_heap.h"
#include "util/ring.h"
#include "util/slot_map.h"

namespace ispn::sched {

class UnifiedScheduler final : public Scheduler {
 public:
  struct Config {
    sim::Rate link_rate = sim::paper::kLinkRate;
    std::size_t capacity_pkts = 200;
    /// Number of predicted-service priority classes (K).  The datagram
    /// class sits below them at level K.
    int num_predicted_classes = 2;
    /// EWMA gain of the per-class average-delay estimate used by FIFO+.
    double avg_gain = 1.0 / 4096.0;
    /// When false, predicted classes run plain FIFO (ablation switch).
    bool fifo_plus = true;
    /// §10 stale-packet discard: a predicted packet whose accumulated
    /// jitter offset exceeds this threshold (seconds) is discarded at
    /// dequeue instead of transmitted — it has already missed any playback
    /// point it could have met, so its bandwidth is better spent on the
    /// packets behind it.  Infinity disables the feature (default).
    sim::Duration stale_offset_threshold = sim::kTimeInfinity;
    /// Unread; see sched::OrderBackend.  Delete at the next benchmark
    /// change.
    OrderBackend order_backend = OrderBackend::kHeap;
    /// Two-level aggregate mode: no per-flow predicted state — packets are
    /// classified purely by their stamped (service, priority), and the
    /// scheduler's state is bounded by {guaranteed flows, K classes,
    /// datagram} regardless of flow count.  See the header comment for the
    /// per-hop-reassignment semantic this trades away.  Default off: the
    /// classic flat path, byte-identical to previous releases.
    bool hierarchical = false;
    /// DEC-TR-506 binary feedback on the datagram class: each datagram
    /// arrival samples the time-averaged datagram queue length over the
    /// current regeneration cycle (cycle restarts when the queue empties)
    /// and sets Packet::cong_mark when the average is at or above
    /// mark_threshold.  Default off: the datagram path is untouched.
    bool binary_feedback = false;
    /// Average-queue-length threshold (packets) for marking.  DEC-TR-506
    /// operates the switch at an average of one queued packet.
    double mark_threshold = 1.0;
  };

  /// Observer invoked at each predicted/datagram dequeue with
  /// (class index — num_predicted_classes for datagram, waiting time, now).
  /// Used by the admission controller's measurement module (d̂_j).
  using WaitObserver = std::function<void(int, sim::Duration, sim::Time)>;

  explicit UnifiedScheduler(Config config);

  /// Registers a guaranteed flow with clock rate `rate` (bits/s).  The
  /// pseudo-flow 0 weight shrinks accordingly.  Precondition: the sum of
  /// guaranteed rates stays below the link rate.
  void add_guaranteed(net::FlowId flow, sim::Rate rate);

  /// Deregisters a guaranteed flow (service teardown).  The flow's queue
  /// must be drained first; flow 0 recovers the clock rate.
  void remove_guaranteed(net::FlowId flow);

  /// Forced teardown for rerouting: hands every queued packet of the flow
  /// to `sink` (the caller accounts them as failed_link_drops), then
  /// deregisters it as remove_guaranteed() would.  Unlike the graceful
  /// path there is no drained-queue precondition — the flow's path no
  /// longer crosses this link, so waiting for a drain would strand the
  /// reserved clock rate.
  void expel_guaranteed(net::FlowId flow, sim::Time now,
                        const std::function<void(net::PacketPtr, sim::Time)>&
                            sink);

  /// Assigns a predicted flow to priority level in [0, K).  Unregistered,
  /// non-guaranteed flows go to the datagram level.
  void set_predicted_priority(net::FlowId flow, int level);

  /// Forgets a predicted flow's priority mapping (service teardown);
  /// in-flight packets keep their class.  The flow's compact slot is
  /// recycled.  No-op in hierarchical mode (nothing was kept).
  void remove_predicted(net::FlowId flow) {
    const std::uint32_t slot = p_slots_.find(flow);
    if (slot != util::SlotMap::kNoSlot) {
      predicted_priority_[slot] = kNoLevel;
      p_slots_.release(flow);
    }
  }

  void set_wait_observer(WaitObserver obs) { observer_ = std::move(obs); }

  /// Observer invoked specifically for §10 stale discards, just before the
  /// victim is also reported to the DropSink.  Loss *accounting* needs no
  /// hook — stale discards already reach Port::drops() and the per-flow
  /// stats through the sink like every other loss; wiring this hook into
  /// the same counters would double-count.  It exists for observers that
  /// want to distinguish discards from other drops (tests, diagnostics).
  using DiscardHook = std::function<void(const net::Packet&, sim::Time)>;
  void set_discard_hook(DiscardHook hook) { discard_hook_ = std::move(hook); }

  /// Packets discarded as stale so far (§10).
  [[nodiscard]] std::uint64_t stale_discards() const {
    return stale_discards_;
  }

  /// Datagram packets stamped with a congestion mark (binary feedback).
  [[nodiscard]] std::uint64_t cong_marks() const { return cong_marks_; }
  /// Datagram arrivals that sampled the average queue length.
  [[nodiscard]] std::uint64_t mark_samples() const { return mark_samples_; }
  /// The time-averaged datagram queue length over the current regeneration
  /// cycle, evaluated at `now` (what the next arrival would compare to the
  /// threshold).  Exposed for the marking-rule unit pins.
  [[nodiscard]] double datagram_avg_queue(sim::Time now) const {
    const double area = dg_area_ + static_cast<double>(datagram_.size()) *
                                       (now - dg_last_change_);
    const double elapsed = now - dg_cycle_start_;
    return elapsed > 0 ? area / elapsed
                       : static_cast<double>(datagram_.size());
  }

  /// Re-rates the link (capacity brown-out / restore): V(t) advances to
  /// `now` under the old rate, then the new μ applies — flow 0's weight
  /// becomes μ' − Σ r_α and the fluid slope changes from this instant.
  /// Precondition: the admission layer has already shed guaranteed flows
  /// until Σ r_α < rate (a brown-out below the reserved sum without
  /// shedding would leave flow 0 with non-positive weight).
  void set_link_rate(sim::Rate rate, sim::Time now);

  /// The link rate the scheduler currently serves at.
  [[nodiscard]] sim::Rate link_rate() const { return config_.link_rate; }

  /// Structural coherence audit for the runtime invariant monitor: packet
  /// counts across the guaranteed queues, class queues, datagram ring and
  /// flow-0 tag queue must agree with the totals, and flow 0's weight
  /// must equal μ − Σ r_α and stay positive.  Returns false and fills
  /// `why` (when non-null) on the first violation.  Call between events
  /// only (mid-dequeue the tag queue is transiently inconsistent).
  [[nodiscard]] bool self_check(std::string* why) const;

  /// Pseudo-flow 0's current WFQ weight (μ − Σ r_α).  Exposed for tests.
  [[nodiscard]] sim::Rate flow0_weight() const { return flow0_weight_; }

  /// Sum of registered guaranteed clock rates.
  [[nodiscard]] sim::Rate guaranteed_rate() const { return guaranteed_rate_; }

  /// Current virtual time, advanced to `now` (diagnostic).
  [[nodiscard]] double virtual_time(sim::Time now);

  /// Queued packets in a predicted class / datagram level (diagnostic).
  [[nodiscard]] std::size_t class_packets(int level) const;

  /// Queued packets of a guaranteed flow (0 when not registered) — a
  /// teardown diagnostic: remove_guaranteed() requires a drained queue.
  /// Note this sees only THIS hop's queue; end-to-end drain checks should
  /// compare the flow's injected/delivered/dropped ledger instead.
  [[nodiscard]] std::size_t guaranteed_packets(net::FlowId flow) const {
    const std::uint32_t slot = g_slots_.find(flow);
    return slot != util::SlotMap::kNoSlot ? guaranteed_[slot].queue.size() : 0;
  }

  /// Dense per-flow slots in use (guaranteed / predicted) — scale with
  /// registered flows, not max(FlowId); the sparse-id regression test and
  /// the hierarchical-mode state bound both pin these.
  [[nodiscard]] std::size_t guaranteed_slots() const {
    return guaranteed_.size();
  }
  [[nodiscard]] std::size_t predicted_slots() const {
    return predicted_priority_.size();
  }

  void enqueue(net::PacketPtr p, sim::Time now) override;
  [[nodiscard]] net::PacketPtr dequeue(sim::Time now) override;
  void flush(const std::function<void(net::PacketPtr, sim::Time)>& sink,
             sim::Time now) override;
  [[nodiscard]] bool empty() const override { return total_packets_ == 0; }
  [[nodiscard]] std::size_t packets() const override { return total_packets_; }
  [[nodiscard]] sim::Bits backlog_bits() const override { return bits_; }

 private:
  // ---- WFQ outer layer --------------------------------------------------
  struct Tagged {
    net::PacketPtr packet;
    double finish = 0;
    std::uint64_t order = 0;
  };
  struct GFlow {
    sim::Rate rate = 0;   // 0 = not registered
    double inv_rate = 0;  // cached 1/rate: tag math without division
    double last_finish = 0;
    util::Ring<Tagged> queue;
  };
  static constexpr std::int16_t kNoLevel = -1;

  /// Compact guaranteed slot of `id`, or SlotMap::kNoSlot when `id` is not
  /// currently add_guaranteed()ed.
  [[nodiscard]] std::uint32_t find_gslot(net::FlowId id) const {
    return g_slots_.find(id);
  }

  // ---- flow 0 internals ---------------------------------------------------
  struct PredictedClass {
    util::DaryHeap<SlabEntry, SlabEntryLess> queue;
    stats::Ewma avg;
  };

  /// Picks the flow-0 packet to transmit (highest class first).
  net::PacketPtr pop_flow0(sim::Time now);
  /// Pushes out a victim from the lowest-priority backlogged flow-0 class.
  net::PacketPtr pushout_flow0(sim::Time now);

  /// Binary feedback: folds the elapsed interval at the current datagram
  /// queue length into the cycle's area integral.  Call before any change
  /// to the datagram queue size.
  void dg_account(sim::Time now) {
    dg_area_ += static_cast<double>(datagram_.size()) *
                (now - dg_last_change_);
    dg_last_change_ = now;
  }
  /// Restarts the regeneration cycle (datagram queue just went empty).
  void dg_reset_cycle(sim::Time now) {
    dg_area_ = 0;
    dg_cycle_start_ = now;
    dg_last_change_ = now;
  }
  [[nodiscard]] int classify(const net::Packet& p) const;

  /// Retires one flow-0 transmission entitlement during a dequeue-time
  /// discard (the served tag already popped by the caller).
  void retire_tag_for_discard();

  Config config_;
  WaitObserver observer_;
  DiscardHook discard_hook_;
  std::uint64_t stale_discards_ = 0;
  /// True while flush() drains the queue through the dequeue path.  A
  /// flush is not service: wait observers must not feed d̂_j, FIFO+ must
  /// not shift class averages, and §10 must not divert packets to the
  /// DropSink — every flushed packet belongs to the flush sink.
  bool flushing_ = false;

  util::SlotMap g_slots_;                     // guaranteed id -> slot
  util::SlotMap p_slots_;                     // predicted id -> slot
  std::vector<GFlow> guaranteed_;             // dense, by guaranteed slot
  std::vector<std::int16_t> predicted_priority_;  // dense; kNoLevel = unset
  sim::Rate guaranteed_rate_ = 0;
  sim::Rate flow0_weight_;

  // Fluid/WFQ state shared by guaranteed flows and flow 0: the shared
  // V(t) machinery plus one head entry per backlogged guaranteed flow.
  FluidClock clock_;
  HeadOrder heads_;

  // Flow 0: tag queue (arrival order) + classed packet queues.
  util::Ring<HeadKey> flow0_tags_;  // (F, order) of each queued packet
  double flow0_last_finish_ = 0;
  double flow0_inv_weight_;  // cached 1 / flow0_weight_
  std::vector<PredictedClass> classes_;       // K predicted levels
  PacketSlab slab_;                           // predicted-class packets
  util::Ring<net::PacketPtr> datagram_;       // level K

  std::uint64_t arrivals_ = 0;
  std::size_t total_packets_ = 0;
  sim::Bits bits_ = 0;

  // DEC-TR-506 marking state (only advanced when config_.binary_feedback).
  double dg_area_ = 0;           ///< ∫ datagram qlen dt over the cycle
  sim::Time dg_cycle_start_ = 0; ///< regeneration cycle origin
  sim::Time dg_last_change_ = 0; ///< last datagram queue-size change
  std::uint64_t cong_marks_ = 0;
  std::uint64_t mark_samples_ = 0;
};

}  // namespace ispn::sched
