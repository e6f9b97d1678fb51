// Static shortest-path routing (BFS over the link graph).
//
// The paper's experiments use fixed routes on a chain; we provide general
// BFS next-hop computation so arbitrary topologies work.  Ties break by
// ascending neighbor id, making routes deterministic.

#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/units.h"

namespace ispn::net {

/// Undirected adjacency: node -> sorted neighbor list.
using Adjacency = std::map<NodeId, std::vector<NodeId>>;

/// Next-hop table for one node: destination -> neighbor.
using NextHops = std::map<NodeId, NodeId>;

/// One link state transition at a simulated instant.  Links are
/// undirected for routing purposes: a failure takes out both directions.
struct LinkEvent {
  sim::Time time = 0;
  NodeId a = -1;
  NodeId b = -1;
  bool up = false;  ///< false = link fails at `time`, true = it recovers
};

/// A deterministic sequence of link events.  Built once (explicit specs
/// or seeded draws) before the run starts, then injected through the
/// event core, so replays are byte-identical across shard counts.
using FailureSchedule = std::vector<LinkEvent>;

/// Normalized undirected link key for down-link sets.
[[nodiscard]] inline std::pair<NodeId, NodeId> undirected(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

/// Copy of `adj` with every link in `down` (normalized (min,max) pairs)
/// removed from both endpoints.  Neighbor order is preserved, so routing
/// tie-breaks stay stable as links come and go.
[[nodiscard]] Adjacency filter_adjacency(
    const Adjacency& adj, const std::set<std::pair<NodeId, NodeId>>& down);

/// As above, additionally severing every link incident to a node in
/// `down_nodes` (a crashed switch): the node stays in the graph —
/// isolated — so routing tie-breaks elsewhere are untouched.
[[nodiscard]] Adjacency filter_adjacency(
    const Adjacency& adj, const std::set<std::pair<NodeId, NodeId>>& down,
    const std::set<NodeId>& down_nodes);

/// Computes next hops from `source` to every reachable destination.
[[nodiscard]] NextHops compute_next_hops(const Adjacency& adj, NodeId source);

/// Shortest path from `src` to `dst` (inclusive); empty if unreachable.
/// Network::route walks the installed next-hop tables instead; the tests
/// hold it to this as the reference.
[[nodiscard]] std::vector<NodeId> shortest_path(const Adjacency& adj,
                                                NodeId src, NodeId dst);

}  // namespace ispn::net
