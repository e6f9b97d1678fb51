// Weighted Fair Queueing (packetized GPS) with exact fluid virtual time.
//
// This is the paper's §4 isolation mechanism.  Each flow α has a clock rate
// (weight) φ_α in bits/second.  Packet k of flow α arriving at time a gets
// tags
//
//     S = max(V(a), F_prev(α)),     F = S + L / φ_α,
//
// and the packetized scheduler transmits, whenever the link frees, the
// queued packet with the smallest finish tag F (ties broken by arrival
// order).  The fluid virtual time V(t) — slope-cached advance through the
// fluid departure epochs — is the shared sched::FluidClock; WFQ's flows
// have weights frozen while backlogged, which is the clock's kPinned
// flow-0 policy.
//
// Hot-path layout: per-flow state is a dense vector indexed by a compact
// slot (util::SlotMap assigns each flow id the lowest free slot on first
// sight, so memory scales with flows seen, never with max(FlowId)) with
// each flow's FIFO a power-of-two ring, and both orderings — fluid
// departure epochs (inside FluidClock) and head-of-flow finish tags — are
// indexed min-heaps holding exactly one entry per flow, re-keyed in place.
// No red-black trees, no per-node allocation, no stale-entry traffic.
//
// With Σ φ_α ≤ C and a flow conforming to an (r, b) token bucket with
// φ = r, the flow's queueing delay is bounded by the Parekh–Gallager bound
// regardless of all other traffic — the property tests exercise this.

#pragma once

#include <cstdint>

#include "sched/fluid_clock.h"
#include "sched/keys.h"
#include "sched/scheduler.h"
#include "util/indexed_heap.h"
#include "util/ring.h"
#include "util/slot_map.h"

namespace ispn::sched {

class WfqScheduler final : public Scheduler {
 public:
  struct Config {
    sim::Rate link_rate = sim::paper::kLinkRate;
    std::size_t capacity_pkts = 200;
    /// Weight assigned on first sight of a flow that was never add_flow()ed.
    /// Useful for egalitarian Fair Queueing (Table 1/2 use equal weights).
    double default_weight = 1.0;
  };

  explicit WfqScheduler(Config config);

  /// Registers `flow` with weight (clock rate) `weight`, in bits/second for
  /// guaranteed-service semantics; any common scale works for pure sharing.
  void add_flow(net::FlowId flow, double weight);

  /// The flow's weight (default_weight if auto-registered).
  [[nodiscard]] double weight(net::FlowId flow) const;

  /// Current virtual time (advanced to `now`).  Exposed for tests.
  [[nodiscard]] double virtual_time(sim::Time now);

  /// Sum of weights of fluid-backlogged flows (diagnostic).
  [[nodiscard]] double active_weight() const { return clock_.active_weight(); }

  /// Dense per-flow slots in use — scales with flows seen, not max(FlowId)
  /// (the sparse-id regression test pins this).
  [[nodiscard]] std::size_t flow_slots() const { return flows_.size(); }

  void enqueue(net::PacketPtr p, sim::Time now) override;
  [[nodiscard]] net::PacketPtr dequeue(sim::Time now) override;
  [[nodiscard]] bool empty() const override { return total_packets_ == 0; }
  [[nodiscard]] std::size_t packets() const override { return total_packets_; }
  [[nodiscard]] sim::Bits backlog_bits() const override { return bits_; }

 private:
  struct Tagged {
    net::PacketPtr packet;
    double finish = 0;        // virtual finish tag F
    std::uint64_t order = 0;  // global arrival order (tie break)
  };
  struct Flow {
    double weight = 1.0;
    double inv_weight = 1.0;  // cached 1/weight: tag math without division
    double last_finish = 0;   // F of the most recently arrived packet
    util::Ring<Tagged> queue;  // per-flow packets, FIFO within flow
  };

  Flow& flow_ref(std::uint32_t idx);

  Config config_;
  util::SlotMap slots_;      // flow id -> compact slot
  std::vector<Flow> flows_;  // dense, indexed by compact slot

  // Fluid system state: the shared V(t) machinery.
  FluidClock clock_;

  // Packetized selection: one head-of-flow finish tag per backlogged flow.
  HeadOrder heads_;

  std::uint64_t arrivals_ = 0;
  std::size_t total_packets_ = 0;
  sim::Bits bits_ = 0;
};

}  // namespace ispn::sched
