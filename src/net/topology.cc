#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <sstream>

namespace ispn::net {

namespace {

/// Shared core of build_chain and build_parking_lot: hop_rates.size()+1
/// switches S-1..S-n each with a Host-i on an infinitely fast link, hop i
/// connecting S-(i+1) -> S-(i+2) at hop_rates[i].
void chain_core(Network& net, const std::vector<sim::Rate>& hop_rates,
                const LinkSchedulerFactory& make_scheduler,
                std::vector<NodeId>* switches, std::vector<NodeId>* hosts) {
  const std::size_t num_switches = hop_rates.size() + 1;
  for (std::size_t i = 0; i < num_switches; ++i) {
    auto& sw = net.add_switch("S-" + std::to_string(i + 1));
    switches->push_back(sw.id());
    auto& host = net.add_host("Host-" + std::to_string(i + 1));
    hosts->push_back(host.id());
    net.connect(host.id(), sw.id(), /*rate=*/0);  // infinitely fast
  }
  for (std::size_t i = 0; i < hop_rates.size(); ++i) {
    net.connect((*switches)[i], (*switches)[i + 1], hop_rates[i],
                make_scheduler);
  }
  net.build_routes();
}

}  // namespace

ChainTopology build_chain(Network& net, int num_switches,
                          sim::Rate inter_switch_rate,
                          const LinkSchedulerFactory& make_scheduler) {
  ChainTopology topo;
  chain_core(net,
             std::vector<sim::Rate>(
                 static_cast<std::size_t>(std::max(num_switches - 1, 0)),
                 inter_switch_rate),
             make_scheduler, &topo.switches, &topo.hosts);
  return topo;
}

ChainTopology build_chain(Network& net, int num_switches,
                          sim::Rate inter_switch_rate,
                          const SchedulerFactory& make_scheduler) {
  return build_chain(net, num_switches, inter_switch_rate,
                     rate_aware(make_scheduler));
}

std::string chain_ascii(const ChainTopology& topo) {
  std::ostringstream out;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    out << "Host-" << i + 1 << (i + 1 < topo.hosts.size() ? "   " : "");
  }
  out << '\n';
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    out << "  |   " << (i + 1 < topo.hosts.size() ? "   " : "");
  }
  out << '\n';
  for (std::size_t i = 0; i < topo.switches.size(); ++i) {
    out << " S-" << i + 1 << (i + 1 < topo.switches.size() ? " ----" : "");
  }
  out << '\n';
  return out.str();
}

DumbbellTopology build_dumbbell(Network& net, sim::Rate bottleneck_rate,
                                const LinkSchedulerFactory& make_scheduler) {
  DumbbellTopology topo{};
  auto& s1 = net.add_switch("S-left");
  auto& s2 = net.add_switch("S-right");
  auto& h1 = net.add_host("H-left");
  auto& h2 = net.add_host("H-right");
  topo.left_switch = s1.id();
  topo.right_switch = s2.id();
  topo.left_host = h1.id();
  topo.right_host = h2.id();
  net.connect(h1.id(), s1.id(), /*rate=*/0);
  net.connect(h2.id(), s2.id(), /*rate=*/0);
  net.connect(s1.id(), s2.id(), bottleneck_rate, make_scheduler);
  net.build_routes();
  return topo;
}

DumbbellTopology build_dumbbell(Network& net, sim::Rate bottleneck_rate,
                                const SchedulerFactory& make_scheduler) {
  return build_dumbbell(net, bottleneck_rate, rate_aware(make_scheduler));
}

FanInTopology build_fan_in(Network& net, int num_sources, sim::Rate feed_rate,
                           sim::Rate bottleneck_rate,
                           const SchedulerFactory& make_scheduler) {
  return build_fan_in(net,
                      std::vector<sim::Rate>(
                          static_cast<std::size_t>(num_sources), feed_rate),
                      bottleneck_rate, make_scheduler);
}

FanInTopology build_fan_in(Network& net,
                           const std::vector<sim::Rate>& feed_rates,
                           sim::Rate bottleneck_rate,
                           const LinkSchedulerFactory& make_scheduler) {
  FanInTopology topo{};
  auto& merge = net.add_switch("S-M");
  auto& out = net.add_switch("S-out");
  auto& sink = net.add_host("Host-out");
  topo.merge_switch = merge.id();
  topo.sink_switch = out.id();
  topo.sink_host = sink.id();
  net.connect(sink.id(), out.id(), /*rate=*/0);
  net.connect(merge.id(), out.id(), bottleneck_rate, make_scheduler);
  for (std::size_t i = 0; i < feed_rates.size(); ++i) {
    auto& sw = net.add_switch("S-" + std::to_string(i + 1));
    auto& host = net.add_host("Host-" + std::to_string(i + 1));
    topo.edge_switches.push_back(sw.id());
    topo.src_hosts.push_back(host.id());
    net.connect(host.id(), sw.id(), /*rate=*/0);
    net.connect(sw.id(), merge.id(), feed_rates[i], make_scheduler);
  }
  net.build_routes();
  return topo;
}

FanInTopology build_fan_in(Network& net,
                           const std::vector<sim::Rate>& feed_rates,
                           sim::Rate bottleneck_rate,
                           const SchedulerFactory& make_scheduler) {
  return build_fan_in(net, feed_rates, bottleneck_rate,
                      rate_aware(make_scheduler));
}

FanTreeTopology build_fan_tree(Network& net, int depth, int width,
                               const std::vector<sim::Rate>& level_rates,
                               const LinkSchedulerFactory& make_scheduler) {
  assert(depth >= 2 && "a tree needs a root level and at least one below");
  assert(width >= 1);
  assert(level_rates.size() == static_cast<std::size_t>(depth - 1));
  FanTreeTopology topo;
  topo.depth = depth;
  topo.width = width;
  topo.levels.resize(static_cast<std::size_t>(depth));

  auto& root = net.add_switch("T-0.0");
  topo.root_switch = root.id();
  topo.levels[0].push_back(root.id());
  auto& root_host = net.add_host("Host-root");
  topo.root_host = root_host.id();
  net.connect(root_host.id(), root.id(), /*rate=*/0);

  for (int d = 1; d < depth; ++d) {
    const auto& parents = topo.levels[static_cast<std::size_t>(d - 1)];
    auto& level = topo.levels[static_cast<std::size_t>(d)];
    for (std::size_t p = 0; p < parents.size(); ++p) {
      for (int c = 0; c < width; ++c) {
        auto& sw = net.add_switch(
            "T-" + std::to_string(d) + "." +
            std::to_string(p * static_cast<std::size_t>(width) +
                           static_cast<std::size_t>(c)));
        level.push_back(sw.id());
        net.connect(parents[p], sw.id(),
                    level_rates[static_cast<std::size_t>(d - 1)],
                    make_scheduler);
      }
    }
  }

  topo.leaf_switches = topo.levels[static_cast<std::size_t>(depth - 1)];
  topo.leaf_hosts.reserve(topo.leaf_switches.size());
  for (std::size_t i = 0; i < topo.leaf_switches.size(); ++i) {
    auto& host = net.add_host("Host-leaf-" + std::to_string(i));
    topo.leaf_hosts.push_back(host.id());
    net.connect(host.id(), topo.leaf_switches[i], /*rate=*/0);
  }
  net.build_routes();
  return topo;
}

ParkingLotTopology build_parking_lot(Network& net,
                                     const std::vector<sim::Rate>& hop_rates,
                                     const LinkSchedulerFactory& make_scheduler) {
  assert(!hop_rates.empty());
  ParkingLotTopology topo;
  chain_core(net, hop_rates, make_scheduler, &topo.switches, &topo.hosts);
  return topo;
}

MeshTopology build_mesh(Network& net, int rows, int cols, sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler) {
  assert(rows >= 1 && cols >= 1);
  assert(std::int64_t{rows} * cols >= 2 &&
         "a mesh needs at least two switches");
  MeshTopology topo;
  topo.rows = rows;
  topo.cols = cols;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      auto& sw = net.add_switch("M-" + std::to_string(r) + "." +
                                std::to_string(c));
      topo.switches.push_back(sw.id());
      auto& host = net.add_host("Host-" + std::to_string(r) + "." +
                                std::to_string(c));
      topo.hosts.push_back(host.id());
      net.connect(host.id(), sw.id(), /*rate=*/0);  // infinitely fast
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.connect(topo.at(r, c), topo.at(r, c + 1), link_rate,
                    make_scheduler);
      }
      if (r + 1 < rows) {
        net.connect(topo.at(r, c), topo.at(r + 1, c), link_rate,
                    make_scheduler);
      }
    }
  }
  net.build_routes();
  return topo;
}

RingTopology build_ring(Network& net, int num_switches, sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler) {
  assert(num_switches >= 3 && "a ring needs at least three switches");
  RingTopology topo;
  for (int i = 0; i < num_switches; ++i) {
    auto& sw = net.add_switch("R-" + std::to_string(i));
    topo.switches.push_back(sw.id());
    auto& host = net.add_host("Host-" + std::to_string(i));
    topo.hosts.push_back(host.id());
    net.connect(host.id(), sw.id(), /*rate=*/0);
  }
  for (int i = 0; i < num_switches; ++i) {
    net.connect(topo.switches[static_cast<std::size_t>(i)],
                topo.switches[static_cast<std::size_t>((i + 1) % num_switches)],
                link_rate, make_scheduler);
  }
  net.build_routes();
  return topo;
}

ClosTopology build_clos(Network& net, int spines, int leaves,
                        sim::Rate link_rate,
                        const LinkSchedulerFactory& make_scheduler) {
  assert(spines >= 1 && leaves >= 2);
  ClosTopology topo;
  for (int s = 0; s < spines; ++s) {
    auto& sw = net.add_switch("Spine-" + std::to_string(s));
    topo.spines.push_back(sw.id());
  }
  for (int l = 0; l < leaves; ++l) {
    auto& sw = net.add_switch("Leaf-" + std::to_string(l));
    topo.leaves.push_back(sw.id());
    auto& host = net.add_host("Host-" + std::to_string(l));
    topo.hosts.push_back(host.id());
    net.connect(host.id(), sw.id(), /*rate=*/0);
    for (const NodeId spine : topo.spines) {
      net.connect(sw.id(), spine, link_rate, make_scheduler);
    }
  }
  net.build_routes();
  return topo;
}

}  // namespace ispn::net
