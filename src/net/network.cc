#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ispn::net {

class Network::RecordingSink final : public FlowSink {
 public:
  RecordingSink(FlowStats& stats, FlowSink* next) : stats_(stats), next_(next) {}

  void on_packet(PacketPtr p, sim::Time now) override {
    ++stats_.received;
    stats_.bits_received += p->size_bits;
    stats_.queueing_delay.add(p->queueing_delay);
    stats_.e2e_delay.add(now - p->created_at);
    if (next_ != nullptr) next_->on_packet(std::move(p), now);
  }

 private:
  FlowStats& stats_;
  FlowSink* next_;
};

void Network::enable_sharding(sim::Duration link_latency) {
  assert(nodes_.empty() && "enable sharding before building the topology");
  assert(link_latency > 0 && "sharded links need positive propagation delay");
  sharded_ = true;
  link_latency_ = link_latency;
}

sim::Simulator& Network::sim_for(NodeId id) {
  if (!sharded_) return sim_;
  return *domains_.at(static_cast<std::size_t>(domain_of_.at(id))).sim;
}

PacketPool& Network::pool_for(NodeId id) {
  if (!sharded_) return PacketPool::global();
  return *domains_.at(static_cast<std::size_t>(domain_of_.at(id))).pool;
}

void Network::attach(sim::ShardedEngine& engine,
                     const std::vector<std::pair<NodeId, NodeId>>& od_pairs) {
  std::vector<std::uint64_t> weight(domains_.size(), 0);
  for (const auto& [src, dst] : od_pairs) {
    for (const NodeId n : route(src, dst)) {
      if (!is_host_.at(n)) ++weight[static_cast<std::size_t>(domain_of_.at(n))];
    }
  }
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const std::size_t index =
        engine.add_domain(domains_[d].sim.get(), weight[d]);
    for (LinkMailbox* mb : domains_[d].inbound) engine.add_inbox(index, mb);
  }
}

FlowStats& Network::hot_stats(FlowId flow) {
  if (!sharded_) return stats_[flow];
  auto it = stats_.find(flow);
  assert(it != stats_.end() && "sharded stats entry not pre-created");
  return it->second;
}

Host& Network::add_host(const std::string& name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  // Sharded hosts start on the control clock and are adopted into their
  // switch's domain when the connecting link is built.
  auto host = std::make_unique<Host>(sim_, id, name);
  Host& ref = *host;
  nodes_.push_back(std::move(host));
  is_host_[id] = true;
  return ref;
}

Switch& Network::add_switch(const std::string& name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<Switch>(id, name);
  Switch& ref = *sw;
  nodes_.push_back(std::move(sw));
  is_host_[id] = false;
  if (sharded_) {
    // One domain per switch, ALWAYS — worker count never changes the
    // decomposition, only how domains map onto threads.
    domain_of_[id] = static_cast<int>(domains_.size());
    Domain d;
    d.sim = std::make_unique<sim::Simulator>();
    d.pool = std::make_unique<PacketPool>();
    d.pool->enable_concurrent_returns();
    domains_.push_back(std::move(d));
  }
  // A packet stranded by a partition is a failure casualty of the owning
  // flow, not a congestion drop.
  ref.set_no_route_hook(
      [this](const Packet& p) { ++hot_stats(p.flow).failed_link_drops; });
  return ref;
}

Host& Network::host(NodeId id) {
  assert(is_host_.at(id));
  return static_cast<Host&>(*nodes_.at(id));
}

Switch& Network::switch_node(NodeId id) {
  assert(!is_host_.at(id));
  return static_cast<Switch&>(*nodes_.at(id));
}

void Network::connect(NodeId a, NodeId b, sim::Rate rate,
                      const SchedulerFactory& make_scheduler) {
  connect(a, b, rate, rate_aware(make_scheduler));
}

void Network::connect(NodeId a, NodeId b, sim::Rate rate,
                      const LinkSchedulerFactory& make_scheduler) {
  assert(a != b);

  const bool switch_link = !is_host_.at(a) && !is_host_.at(b);
  if (sharded_) {
    if (switch_link) {
      // A zero-transmission-time cross-domain link would deliver inline
      // into another domain's state from the wrong thread; the lookahead
      // model needs every cross-domain hop to go through a mailbox.
      assert(rate > 0 && "sharded switch-switch links must be finite-rate");
    } else {
      // Adopt the host into its switch's domain before its uplink port
      // binds a clock.  Hosts have exactly one link, so adoption is
      // unambiguous.
      const NodeId h = is_host_.at(a) ? a : b;
      const NodeId s = is_host_.at(a) ? b : a;
      assert(!is_host_.at(s) && "host-host links are not supported");
      assert(!domain_of_.contains(h) && "host already connected");
      domain_of_[h] = domain_of_.at(s);
      host(h).rebind_sim(sim_for(h));
    }
  }

  auto install = [&](NodeId from, NodeId to) {
    std::unique_ptr<sched::Scheduler> scheduler;
    if (rate > 0) {
      assert(make_scheduler && "finite-rate link needs a scheduler factory");
      scheduler = make_scheduler(from, to, rate);
      assert(scheduler != nullptr);
    }
    Node* to_node = nodes_.at(to).get();
    auto port = std::make_unique<Port>(sim_for(from), rate,
                                       std::move(scheduler), to_node);
    port->add_drop_hook(
        [this](const Packet& p, sim::Time) { ++hot_stats(p.flow).net_drops; });
    // Attribute by cause at flush time: when either endpoint switch is
    // down the casualty belongs to the CRASH (set_node_up inserts the
    // node before flushing its star, so the hook observes the cause),
    // otherwise to the link failure.
    port->add_link_drop_hook([this, from, to](const Packet& p, sim::Time) {
      if (down_nodes_.contains(from) || down_nodes_.contains(to)) {
        ++hot_stats(p.flow).node_failure_drops;
      } else {
        ++hot_stats(p.flow).failed_link_drops;
      }
    });
    port->add_fault_drop_hook([this](const Packet& p, sim::Time) {
      ++hot_stats(p.flow).fault_drops;
    });
    if (sharded_ && switch_link) {
      // Directed mailbox from->to.  Ring sized to the link's bandwidth-
      // delay product in nominal 1000-bit packets, with slack for the
      // barrier-quantized drain cadence; the overflow vector absorbs
      // anything beyond (clamped so degenerate parameters stay sane).
      const double bdp_pkts = 4.0 * rate * link_latency_ / 1000.0 + 64.0;
      const std::size_t cap =
          mailbox_cap_override_ > 0
              ? mailbox_cap_override_
              : static_cast<std::size_t>(
                    std::min(std::max(bdp_pkts, 256.0), 65536.0));
      mailboxes_.push_back(std::make_unique<LinkMailbox>(
          link_latency_, sim_for(to), *to_node, cap));
      domains_.at(static_cast<std::size_t>(domain_of_.at(to)))
          .inbound.push_back(mailboxes_.back().get());
      port->set_handoff(mailboxes_.back().get());
    }
    if (is_host_.at(from)) {
      host(from).set_uplink(std::move(port));
    } else {
      switch_node(from).attach_port(to, std::move(port));
    }
  };
  install(a, b);
  install(b, a);

  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  link_rate_[{a, b}] = rate;
  link_rate_[{b, a}] = rate;
}

void Network::build_routes() {
  // Deterministic BFS: neighbor lists sorted.  filter_adjacency preserves
  // this order, so rebuilds after failures keep the same tie-breaks.
  for (auto& [_, neighbors] : adjacency_) {
    std::sort(neighbors.begin(), neighbors.end());
  }
  rebuild_routes();
}

void Network::rebuild_routes() {
  const Adjacency active = active_adjacency();
  for (const auto& node : nodes_) {
    if (is_host_.at(node->id())) continue;  // hosts send via their uplink
    auto& sw = static_cast<Switch&>(*node);
    sw.clear_routes();
    for (const auto& [dst, next] : compute_next_hops(active, sw.id())) {
      sw.set_route(dst, next);
    }
  }
}

void Network::apply_port_state(NodeId a, NodeId b) {
  // Ports track the EFFECTIVE state (link AND both endpoint nodes).
  // Transitions flush; non-transitions are no-ops, so flipping one cause
  // while another keeps the link down never double-flushes or wrongly
  // resurrects a port.
  const bool eff = effective_link_up(a, b);
  const sim::Time now = sim_.now();
  if (Port* p = port(a, b)) {
    if (p->link_up() != eff) p->set_link_up(eff, now);
  }
  if (Port* p = port(b, a)) {
    if (p->link_up() != eff) p->set_link_up(eff, now);
  }
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
  assert(link_rate_.contains({a, b}) && "no such link");
  const auto key = undirected(a, b);
  if (up != down_links_.contains(key)) return;  // already in that state
  if (up) {
    down_links_.erase(key);
  } else {
    down_links_.insert(key);
  }
  apply_port_state(a, b);
  rebuild_routes();
}

void Network::set_node_up(NodeId node, bool up) {
  assert(!is_host_.at(node) && "only switches crash");
  if (up != down_nodes_.contains(node)) return;  // already in that state
  // Membership flips FIRST so the link-drop hooks firing during the
  // incident-star flush see the crash and attribute casualties to
  // node_failure_drops, and so apply_port_state computes the new
  // effective states.
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
  for (const NodeId v : adjacency_.at(node)) apply_port_state(node, v);
  rebuild_routes();  // once, after the whole star transitioned
}

void Network::set_link_rate(NodeId a, NodeId b, sim::Rate rate) {
  assert(link_rate_.contains({a, b}) && "no such link");
  link_rate_[{a, b}] = rate;
  link_rate_[{b, a}] = rate;
  if (Port* p = port(a, b)) p->set_rate(rate);
  if (Port* p = port(b, a)) p->set_rate(rate);
}

std::uint64_t Network::handoff_in_transit() const {
  std::uint64_t n = 0;
  for (const auto& mb : mailboxes_) n += mb->in_transit();
  return n;
}

std::uint64_t Network::mailbox_spills() const {
  std::uint64_t n = 0;
  for (const auto& mb : mailboxes_) n += mb->spills();
  return n;
}

Port* Network::port(NodeId from, NodeId to) {
  if (is_host_.at(from)) return host(from).uplink();
  return switch_node(from).port_to(to);
}

void Network::attach_stats_sink(FlowId flow, NodeId dst, FlowSink* next) {
  auto sink = std::make_unique<RecordingSink>(stats_[flow], next);
  host(dst).register_sink(flow, sink.get());
  sinks_.push_back(std::move(sink));
}

std::vector<NodeId> Network::route(NodeId src, NodeId dst) const {
  if (down_links_.empty() && down_nodes_.empty()) {
    return shortest_path(adjacency_, src, dst);
  }
  return shortest_path(active_adjacency(), src, dst);
}

std::size_t Network::queueing_hops(NodeId src, NodeId dst) const {
  const auto path = route(src, dst);
  std::size_t hops = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (link_rate_.at({path[i], path[i + 1]}) > 0) ++hops;
  }
  return hops;
}

}  // namespace ispn::net
