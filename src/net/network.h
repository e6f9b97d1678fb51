// Network: the container that owns the simulator, nodes, links and per-flow
// statistics, and wires drop accounting into every port.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "net/handoff.h"
#include "net/host.h"
#include "net/routing.h"
#include "net/switch.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace ispn::net {

/// Creates the queueing discipline for one link direction.
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

/// Link-aware variant: receives the direction (from, to), so callers can
/// key per-link state (measurement, admission) by direction, and the link
/// rate, so fabrics with per-hop rates (parking lots, aggregation trees)
/// can size each scheduler, measurement window and admission registration
/// to the link it actually serves.
using LinkSchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>(
    NodeId from, NodeId to, sim::Rate rate)>;

/// Adapts the plain factory to the link-aware one (an empty factory stays
/// empty, so infinitely fast links still need none).  The single
/// adaptation point for Network::connect and the topology builders.
[[nodiscard]] inline LinkSchedulerFactory rate_aware(SchedulerFactory make) {
  if (!make) return {};
  return [make = std::move(make)](NodeId, NodeId, sim::Rate) {
    return make();
  };
}

class Network {
 public:
  Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The control simulator: the only clock in classic mode; the barrier
  /// clock for admission/failure/stop events in sharded mode.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  // --- sharded (per-switch domain) execution --------------------------

  /// Opts in to the sharded execution model BEFORE any node is added:
  /// every switch becomes its own domain with its own Simulator clock and
  /// PacketPool; hosts join their switch's domain when connected; every
  /// switch-switch link carries `link_latency` seconds of propagation
  /// delay and hands packets across domains through a LinkMailbox.  The
  /// decomposition is a function of the topology alone — never of how
  /// many threads later execute it — which is what makes shard-count
  /// variation bit-identical (sim/shard.h).
  void enable_sharding(sim::Duration link_latency);
  [[nodiscard]] bool sharded() const { return sharded_; }
  [[nodiscard]] sim::Duration link_latency() const { return link_latency_; }

  /// The clock that owns node `id`: its domain's simulator when sharded,
  /// the control simulator otherwise.  Sources and sinks for a flow must
  /// schedule on the clock of the host they sit on.
  [[nodiscard]] sim::Simulator& sim_for(NodeId id);

  /// Domain index of node `id` (sharded mode only).
  [[nodiscard]] int domain_of(NodeId id) const { return domain_of_.at(id); }
  [[nodiscard]] std::size_t num_domains() const { return domains_.size(); }
  [[nodiscard]] sim::Simulator& domain_sim(std::size_t d) {
    return *domains_.at(d).sim;
  }

  /// The packet pool sources on node `id` should draw from: the owning
  /// domain's concurrent-return pool when sharded, the global pool
  /// otherwise.
  [[nodiscard]] PacketPool& pool_for(NodeId id);

  /// Registers every domain with `engine`, in domain order, together with
  /// its inbound mailboxes in creation order.  A domain's weight for the
  /// worker mapping is the number of `od_pairs` (the origin-destination
  /// pairs the workload sends between) whose route crosses its switch.
  /// Call once the routes are built.
  void attach(sim::ShardedEngine& engine,
              const std::vector<std::pair<NodeId, NodeId>>& od_pairs);

  /// Adds a host; its id is returned via Host::id().
  Host& add_host(const std::string& name);

  /// Adds a switch.
  Switch& add_switch(const std::string& name);

  /// Connects two nodes with a duplex link of `rate` bits/s per direction.
  /// `make_scheduler` is invoked once per direction; it may be empty when
  /// `rate <= 0` (infinitely fast link, no queueing — the paper's
  /// host-switch attachment).  Host endpoints gain their uplink; switch
  /// endpoints gain a port.  Hosts may have only one link.
  void connect(NodeId a, NodeId b, sim::Rate rate,
               const SchedulerFactory& make_scheduler = {});

  /// As above, with a direction- and rate-aware factory.
  void connect(NodeId a, NodeId b, sim::Rate rate,
               const LinkSchedulerFactory& make_scheduler);

  /// True if `id` names a host (false: a switch).
  [[nodiscard]] bool is_host(NodeId id) const { return is_host_.at(id); }

  /// Computes BFS next-hop tables and installs them on every switch.
  /// Call after all links exist and before traffic starts.
  void build_routes();

  /// Takes the duplex link a<->b down (up=false) or back up (up=true) at
  /// the simulator's current time, then recomputes every switch's routing
  /// table over the surviving links.  Packets in flight or queued on a
  /// failing link are lost and attributed to the owning flow's
  /// failed_link_drops.  No-op when the link is already in that state.
  void set_link_up(NodeId a, NodeId b, bool up);

  /// True when the a<->b link is itself up (its OWN state: a crashed
  /// endpoint does not flip this — see effective_link_up).
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const {
    return !down_links_.contains(undirected(a, b));
  }

  /// True when packets can actually traverse a<->b: the link is up AND
  /// neither endpoint switch has crashed.
  [[nodiscard]] bool effective_link_up(NodeId a, NodeId b) const {
    return link_up(a, b) && !down_nodes_.contains(a) &&
           !down_nodes_.contains(b);
  }

  /// Crashes (up=false) or recovers (up=true) a switch: every incident
  /// link's ports go down ATOMICALLY (queued and in-flight packets flush
  /// into the owning flows' node_failure_drops bucket), then routes are
  /// recomputed ONCE.  Recovery restores only links that are themselves
  /// up (a link that failed independently stays down).  No-op when the
  /// node is already in that state.
  void set_node_up(NodeId node, bool up);

  /// True when the switch has not crashed.
  [[nodiscard]] bool node_up(NodeId node) const {
    return !down_nodes_.contains(node);
  }

  /// Re-rates the duplex link a<->b (capacity brown-out / restore): both
  /// ports transmit at `rate` from now on.  Schedulers, measurement and
  /// admission are re-rated by their owners (core::IspnNetwork).
  void set_link_rate(NodeId a, NodeId b, sim::Rate rate);

  /// The current (possibly browned-out) rate of link a->b.
  [[nodiscard]] sim::Rate link_rate(NodeId a, NodeId b) const {
    return link_rate_.at({a, b});
  }

  /// The as-built graph minus failed links and crashed switches.
  [[nodiscard]] Adjacency active_adjacency() const {
    return filter_adjacency(adjacency_, down_links_, down_nodes_);
  }

  /// Packets currently inside cross-domain mailboxes or scheduled but not
  /// yet arrived (sharded runs; 0 otherwise).  A mid-run conservation
  /// audit must count these: they are in no port's queue.
  [[nodiscard]] std::uint64_t handoff_in_transit() const;

  /// Lifetime total of mailbox ring overflows across every link.
  [[nodiscard]] std::uint64_t mailbox_spills() const;

  /// Forces every subsequently created mailbox ring to `cap` entries
  /// (test hook: a tiny ring exercises the barrier-only spill path under
  /// bursts no sane BDP sizing would overflow).  Call before connect().
  void set_mailbox_capacity_override(std::size_t cap) {
    mailbox_cap_override_ = cap;
  }

  /// Reinstalls next-hop tables over the active adjacency (what
  /// set_link_up does after flipping a link).
  void rebuild_routes();

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] Host& host(NodeId id);
  [[nodiscard]] Switch& switch_node(NodeId id);

  /// The output port from `from` towards neighbor `to`; nullptr if absent.
  [[nodiscard]] Port* port(NodeId from, NodeId to);

  /// Per-flow statistics record (created on first use).
  [[nodiscard]] FlowStats& stats(FlowId flow) { return stats_[flow]; }
  [[nodiscard]] const std::map<FlowId, FlowStats>& all_stats() const {
    return stats_;
  }

  /// Registers a recording sink for `flow` at `dst` that fills stats(flow)
  /// and optionally forwards to `next` (e.g. a playback application or a
  /// TCP sink).
  void attach_stats_sink(FlowId flow, NodeId dst, FlowSink* next = nullptr);

  /// Route (node sequence, both ends included) that packets from src to
  /// dst take now: src's uplink, then each switch's installed next hop for
  /// dst.  Admission therefore reserves exactly the links packets cross.
  /// Empty when failed links or crashed switches leave dst unreachable.
  /// Over the same active graph this equals shortest_path(): the BFS tree
  /// path is the lexicographically least shortest path, and every suffix
  /// of that path is the least shortest path from its first node.
  [[nodiscard]] std::vector<NodeId> route(NodeId src, NodeId dst) const;

  /// Number of finite-rate (queueing) links on the route src -> dst.
  [[nodiscard]] std::size_t queueing_hops(NodeId src, NodeId dst) const;

  /// The as-built graph, failed links included; see active_adjacency().
  [[nodiscard]] const Adjacency& adjacency() const { return adjacency_; }

 private:
  class RecordingSink;

  /// Drives both ports of a<->b to their effective state (link state AND
  /// endpoint node state combined), flushing on a transition to down.
  void apply_port_state(NodeId a, NodeId b);

  /// Per-flow stats record for packet-path hooks: find-only in sharded
  /// mode (entries are pre-created at flow-open time on the control
  /// thread, via attach_stats_sink or an explicit stats() call; a map
  /// insert from a domain thread would race the structure).
  [[nodiscard]] FlowStats& hot_stats(FlowId flow);

  struct Domain {
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<PacketPool> pool;
    std::vector<LinkMailbox*> inbound;  // creation order
  };

  sim::Simulator sim_;
  // Declared BEFORE nodes_: destruction runs in reverse, and Port
  // destructors release timers into their domain's event queue and
  // packets into their domain's pool — both must outlive every node.
  // Mailboxes sit between (their destructor returns undelivered packets
  // to the domain pools).
  bool sharded_ = false;
  sim::Duration link_latency_ = 0;
  std::vector<Domain> domains_;
  std::map<NodeId, int> domain_of_;
  std::vector<std::unique_ptr<LinkMailbox>> mailboxes_;  // creation order
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<NodeId, bool> is_host_;
  Adjacency adjacency_;
  std::set<std::pair<NodeId, NodeId>> down_links_;  // undirected (min,max)
  std::set<NodeId> down_nodes_;                     // crashed switches
  std::map<std::pair<NodeId, NodeId>, sim::Rate> link_rate_;
  std::size_t mailbox_cap_override_ = 0;  // 0: BDP-sized (the default)
  std::map<FlowId, FlowStats> stats_;
  std::vector<std::unique_ptr<FlowSink>> sinks_;
};

}  // namespace ispn::net
