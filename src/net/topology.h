// Topology builders, including the paper's Figure 1 chain.
//
//   Host-1   Host-2   Host-3   Host-4   Host-5
//     |        |        |        |        |          (infinitely fast)
//    S-1 ---- S-2 ---- S-3 ---- S-4 ---- S-5         (1 Mbit/s links)
//
// Hosts attach by infinitely fast links; queueing happens only at the
// inter-switch links, each carrying 10 flows in the paper's Tables 2/3.
//
// Every builder takes a LinkSchedulerFactory, which sees each direction's
// endpoints and rate so callers can key per-link state (measurement,
// admission) by direction — the scenario fabric generator composes these.
// The chain, dumbbell and fan-in builders also take a plain
// SchedulerFactory, adapted through rate_aware().

#pragma once

#include <string>
#include <vector>

#include "net/network.h"

namespace ispn::net {

/// Ids of the nodes created by build_chain().
struct ChainTopology {
  std::vector<NodeId> switches;  ///< S-1 .. S-n, left to right
  std::vector<NodeId> hosts;     ///< Host-i attached to S-i
};

/// Builds an n-switch chain with one host per switch (Figure 1 for n = 5).
/// Inter-switch links run at `inter_switch_rate` with `make_scheduler`
/// queueing per direction; host links are infinitely fast.
ChainTopology build_chain(Network& net, int num_switches,
                          sim::Rate inter_switch_rate,
                          const SchedulerFactory& make_scheduler);
ChainTopology build_chain(Network& net, int num_switches,
                          sim::Rate inter_switch_rate,
                          const LinkSchedulerFactory& make_scheduler);

/// Renders the chain as ASCII art (used by bench_table2 to echo Figure 1).
[[nodiscard]] std::string chain_ascii(const ChainTopology& topo);

/// Builds a single-link topology: two hosts joined through two switches by
/// one bottleneck link (the Table 1 configuration collapses to this).
struct DumbbellTopology {
  NodeId left_host;
  NodeId right_host;
  NodeId left_switch;
  NodeId right_switch;
};
DumbbellTopology build_dumbbell(Network& net, sim::Rate bottleneck_rate,
                                const SchedulerFactory& make_scheduler);
DumbbellTopology build_dumbbell(Network& net, sim::Rate bottleneck_rate,
                                const LinkSchedulerFactory& make_scheduler);

/// Fan-in: several edge switches feed one merge switch whose single
/// output port is the bottleneck — the first scenario beyond the paper's
/// Figure 1 chain, exercising a queueing point where traffic from
/// multiple upstream switches converges.
///
///   Host-1 ── S-1 ─┐ feed_rate
///   Host-2 ── S-2 ─┼──────── S-M ──bottleneck_rate── S-out ── Host-out
///   ...            │
///   Host-n ── S-n ─┘
struct FanInTopology {
  std::vector<NodeId> src_hosts;      ///< Host-1 .. Host-n
  std::vector<NodeId> edge_switches;  ///< S-1 .. S-n
  NodeId merge_switch;  ///< S-M; its port towards sink_switch is the bottleneck
  NodeId sink_switch;   ///< S-out
  NodeId sink_host;     ///< Host-out
};
FanInTopology build_fan_in(Network& net, int num_sources, sim::Rate feed_rate,
                           sim::Rate bottleneck_rate,
                           const SchedulerFactory& make_scheduler);

/// Asymmetric-rate fan-in: one feed rate per source (feed_rates[i] is the
/// S-i -> S-M link; <= 0 means infinitely fast).  A fast feed beside slow
/// ones makes the merge port the paper's "parking lot" — cross traffic
/// entering at different rates and contending for one bottleneck — which
/// the soak test drives with millions of packets.
FanInTopology build_fan_in(Network& net,
                           const std::vector<sim::Rate>& feed_rates,
                           sim::Rate bottleneck_rate,
                           const SchedulerFactory& make_scheduler);
FanInTopology build_fan_in(Network& net,
                           const std::vector<sim::Rate>& feed_rates,
                           sim::Rate bottleneck_rate,
                           const LinkSchedulerFactory& make_scheduler);

/// Complete `width`-ary aggregation tree of `depth` switch levels: the
/// root (level 0) carries the sink host, every leaf switch (level
/// depth-1) carries a source host, and the links between level d and
/// level d+1 run at level_rates[d].  Traffic from the leaves converges
/// level by level towards the root — a fan-in fabric whose contention
/// deepens with `depth` (reversed flows make it a fan-out tree; the
/// topology is symmetric).
///
///   depth=3, width=2:   Host-root -- S-0            (level 0)
///                                   /    |
///                                S-1     S-2        (level 1)
///                               /  |     |  |
///                             S-3 S-4   S-5 S-6     (level 2, leaves)
///                              |   |     |   |
///                            Host Host Host Host
struct FanTreeTopology {
  int depth = 0;  ///< number of switch levels
  int width = 0;  ///< children per switch
  std::vector<std::vector<NodeId>> levels;  ///< levels[d] = switches at depth d
  NodeId root_switch = kNoNode;
  NodeId root_host = kNoNode;              ///< sink side, attached to the root
  std::vector<NodeId> leaf_switches;       ///< == levels[depth-1]
  std::vector<NodeId> leaf_hosts;          ///< one per leaf switch
};
FanTreeTopology build_fan_tree(Network& net, int depth, int width,
                               const std::vector<sim::Rate>& level_rates,
                               const LinkSchedulerFactory& make_scheduler);

/// Multi-bottleneck parking lot: a chain of switches where EVERY switch
/// carries an entry/exit host and every hop may run at its own rate, so
/// cross traffic enters and leaves at each hop while long flows cross
/// several consecutive bottlenecks (hop_rates[i] is the S-i -> S-i+1
/// link).  This is the classic multi-bottleneck fairness topology the
/// ROADMAP's scale-scenarios item calls for.
struct ParkingLotTopology {
  std::vector<NodeId> switches;  ///< S-1 .. S-(n+1) for n hops
  std::vector<NodeId> hosts;     ///< entry/exit host per switch
  [[nodiscard]] int hops() const {
    return static_cast<int>(switches.size()) - 1;
  }
};
ParkingLotTopology build_parking_lot(Network& net,
                                     const std::vector<sim::Rate>& hop_rates,
                                     const LinkSchedulerFactory& make_scheduler);

/// rows x cols grid of switches, each with one host, connected to the
/// right and downward neighbor — the smallest fabric where a single link
/// failure leaves an alternate path for every pair, which is what the
/// failure scenarios need.  switches[r*cols + c] is the switch at (r, c).
///
///   rows=2, cols=3:    S00 ── S01 ── S02
///                       |      |      |
///                      S10 ── S11 ── S12      (every switch has a host)
struct MeshTopology {
  int rows = 0;
  int cols = 0;
  std::vector<NodeId> switches;  ///< row-major, rows*cols entries
  std::vector<NodeId> hosts;     ///< hosts[i] attached to switches[i]
  [[nodiscard]] NodeId at(int r, int c) const {
    return switches[static_cast<std::size_t>(r * cols + c)];
  }
};
MeshTopology build_mesh(Network& net, int rows, int cols, sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler);

/// n switches in a cycle, one host each: exactly two disjoint paths
/// between every pair, so any single failure reroutes the long way round.
struct RingTopology {
  std::vector<NodeId> switches;
  std::vector<NodeId> hosts;
};
RingTopology build_ring(Network& net, int num_switches, sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler);

/// Two-level folded Clos: every leaf connects to every spine, hosts hang
/// off the leaves.  Leaf-to-leaf traffic has `spines` equal-length paths;
/// BFS tie-breaking pins each pair to one, and a spine-link failure moves
/// it deterministically to the next spine.
struct ClosTopology {
  std::vector<NodeId> spines;
  std::vector<NodeId> leaves;
  std::vector<NodeId> hosts;  ///< hosts[i] attached to leaves[i]
};
ClosTopology build_clos(Network& net, int spines, int leaves,
                        sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler);

}  // namespace ispn::net
