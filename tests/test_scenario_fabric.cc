// Scenario layer unit tests: topology generators produce the advertised
// shapes, per-hop rates reach every layer (scheduler, measurement,
// admission), spec parsing round-trips, and a small live-admission run
// conserves packets and fills its report.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "scenario/runner.h"
#include "sched/fifo.h"

namespace ispn {
namespace {

net::LinkSchedulerFactory fifo_factory() {
  return [](net::NodeId, net::NodeId, sim::Rate) {
    return std::make_unique<sched::FifoScheduler>(50);
  };
}

TEST(FanTree, ShapeAndRoutes) {
  net::Network net;
  const auto topo =
      net::build_fan_tree(net, /*depth=*/3, /*width=*/2, {2e6, 1e6},
                          fifo_factory());
  ASSERT_EQ(topo.levels.size(), 3u);
  EXPECT_EQ(topo.levels[0].size(), 1u);
  EXPECT_EQ(topo.levels[1].size(), 2u);
  EXPECT_EQ(topo.levels[2].size(), 4u);
  EXPECT_EQ(topo.leaf_switches.size(), 4u);
  EXPECT_EQ(topo.leaf_hosts.size(), 4u);

  // Every leaf host routes to the root host across exactly depth-1
  // queueing links (host attachments are infinitely fast).
  for (const net::NodeId leaf : topo.leaf_hosts) {
    EXPECT_EQ(net.queueing_hops(leaf, topo.root_host), 2u);
  }
  // Level rates land on the right tiers.
  EXPECT_DOUBLE_EQ(net.port(topo.levels[1][0], topo.root_switch)->rate(), 2e6);
  EXPECT_DOUBLE_EQ(net.port(topo.levels[2][0], topo.levels[1][0])->rate(),
                   1e6);
}

TEST(ParkingLot, PerHopRatesAndHosts) {
  net::Network net;
  const auto topo =
      net::build_parking_lot(net, {4e6, 2e6, 1e6}, fifo_factory());
  EXPECT_EQ(topo.hops(), 3);
  ASSERT_EQ(topo.switches.size(), 4u);
  ASSERT_EQ(topo.hosts.size(), 4u);
  EXPECT_DOUBLE_EQ(net.port(topo.switches[0], topo.switches[1])->rate(), 4e6);
  EXPECT_DOUBLE_EQ(net.port(topo.switches[1], topo.switches[2])->rate(), 2e6);
  EXPECT_DOUBLE_EQ(net.port(topo.switches[2], topo.switches[3])->rate(), 1e6);
  // End-to-end crosses all three bottlenecks; each hop pair exactly one.
  EXPECT_EQ(net.queueing_hops(topo.hosts.front(), topo.hosts.back()), 3u);
  EXPECT_EQ(net.queueing_hops(topo.hosts[1], topo.hosts[2]), 1u);
}

TEST(Mesh, ShapeRoutesAndAlternatePaths) {
  net::Network net;
  const auto topo = net::build_mesh(net, /*rows=*/3, /*cols=*/3, 1e6,
                                    fifo_factory());
  ASSERT_EQ(topo.switches.size(), 9u);
  ASSERT_EQ(topo.hosts.size(), 9u);
  // Opposite corners are 4 queueing hops apart (Manhattan distance).
  EXPECT_EQ(net.queueing_hops(topo.hosts.front(), topo.hosts.back()), 4u);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[1]), 1u);

  // The defining property for the failure scenarios: killing one link on
  // the corner-to-corner route leaves an alternate path of the same
  // length, and repair restores the original tie-broken route.
  const auto before = net.route(topo.hosts.front(), topo.hosts.back());
  ASSERT_GE(before.size(), 3u);
  net.set_link_up(before[1], before[2], false);
  const auto after = net.route(topo.hosts.front(), topo.hosts.back());
  ASSERT_FALSE(after.empty()) << "mesh lost connectivity on one failure";
  EXPECT_EQ(after.size(), before.size());
  EXPECT_NE(after, before);
  net.set_link_up(before[1], before[2], true);
  EXPECT_EQ(net.route(topo.hosts.front(), topo.hosts.back()), before);
}

TEST(Ring, ShapeAndRerouteTheLongWayRound) {
  net::Network net;
  const auto topo = net::build_ring(net, /*num_switches=*/6, 1e6,
                                    fifo_factory());
  ASSERT_EQ(topo.switches.size(), 6u);
  ASSERT_EQ(topo.hosts.size(), 6u);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[1]), 1u);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[3]), 3u);

  // Failing the direct edge forces the 5-hop path the other way round.
  net.set_link_up(topo.switches[0], topo.switches[1], false);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[1]), 5u);
  net.set_link_up(topo.switches[0], topo.switches[1], true);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[1]), 1u);
}

TEST(Clos, EveryLeafPairTwoHopsAndSpineFailover) {
  net::Network net;
  const auto topo = net::build_clos(net, /*spines=*/2, /*leaves=*/4, 1e6,
                                    fifo_factory());
  ASSERT_EQ(topo.spines.size(), 2u);
  ASSERT_EQ(topo.leaves.size(), 4u);
  ASSERT_EQ(topo.hosts.size(), 4u);
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.hosts.size(); ++j) {
      EXPECT_EQ(net.queueing_hops(topo.hosts[i], topo.hosts[j]), 2u);
    }
  }
  // Losing one leaf's uplink to a spine just shifts that pair to the
  // other spine — still two hops.
  const auto via = net.route(topo.hosts[0], topo.hosts[1]);
  ASSERT_EQ(via.size(), 5u);  // host leaf spine leaf host
  net.set_link_up(via[1], via[2], false);
  EXPECT_EQ(net.queueing_hops(topo.hosts[0], topo.hosts[1]), 2u);
  EXPECT_NE(net.route(topo.hosts[0], topo.hosts[1])[2], via[2]);
}

/// Every ordered host pair's route (the installed next hops) equals the
/// BFS shortest path over the active graph, the oracle route() replaced.
void expect_routes_match_oracle(net::Network& net, const std::string& what) {
  const net::Adjacency active = net.active_adjacency();
  std::vector<net::NodeId> hosts;
  for (const auto& [id, neighbors] : net.adjacency()) {
    if (net.is_host(id)) hosts.push_back(id);
  }
  for (const net::NodeId s : hosts) {
    for (const net::NodeId d : hosts) {
      ASSERT_EQ(net.route(s, d), net::shortest_path(active, s, d))
          << what << ": " << s << " -> " << d;
    }
  }
}

TEST(Routes, InstalledNextHopsMatchShortestPathsUnderFailures) {
  const std::vector<std::string> fabrics = {
      "chain", "fan_in", "parking_lot", "churn", "failure", "chaos",
      "mesh",  "ring",   "clos"};
  for (const std::string& name : fabrics) {
    scenario::ScenarioSpec spec;
    if (name == "mesh") {
      spec.fabric = scenario::FabricKind::kMesh;
    } else if (name == "ring") {
      spec.fabric = scenario::FabricKind::kRing;
    } else if (name == "clos") {
      spec.fabric = scenario::FabricKind::kClos;
    } else {
      spec = scenario::preset(name);
    }
    core::IspnNetwork ispn(spec.network_config());
    scenario::build_fabric(ispn, spec);
    net::Network& net = ispn.net();
    expect_routes_match_oracle(net, name + " as built");

    std::vector<net::NodeId> switches;
    std::vector<std::pair<net::NodeId, net::NodeId>> links;  // hosts' too
    for (const auto& [id, neighbors] : net.adjacency()) {
      if (!net.is_host(id)) switches.push_back(id);
      for (const net::NodeId v : neighbors) {
        if (id < v) links.emplace_back(id, v);
      }
    }
    // A seeded walk of link failures and repairs and switch crashes and
    // recoveries; every step rebuilds the tables the route walks.
    sim::Rng rng(17);
    for (int step = 0; step < 24; ++step) {
      if (rng.uniform() < 0.7) {
        const auto [a, b] = links[rng.below(links.size())];
        net.set_link_up(a, b, !net.link_up(a, b));
      } else {
        const net::NodeId n = switches[rng.below(switches.size())];
        net.set_node_up(n, !net.node_up(n));
      }
      expect_routes_match_oracle(net, name + " step " + std::to_string(step));
    }
  }
}

TEST(QosFabric, PerHopRatesReachSchedulerMeasurementAndAdmission) {
  scenario::ScenarioSpec spec;
  spec.fabric = scenario::FabricKind::kParkingLot;
  spec.parking_hops = 2;
  spec.link_rate = 2e6;
  spec.parking_rate_step = 0.5;  // hop 0: 2 Mb/s, hop 1: 1 Mb/s
  scenario::ScenarioRunner runner(spec);
  runner.prepare();

  auto& ispn = runner.ispn();
  ASSERT_EQ(ispn.links().size(), 4u);  // 2 hops x 2 directions
  const core::LinkId hop0 = ispn.links()[0];
  const core::LinkId hop1 = ispn.links()[2];
  EXPECT_DOUBLE_EQ(runner.net().port(hop0.first, hop0.second)->rate(), 2e6);
  EXPECT_DOUBLE_EQ(runner.net().port(hop1.first, hop1.second)->rate(), 1e6);
  EXPECT_DOUBLE_EQ(ispn.measurement(hop0).config().link_rate, 2e6);
  EXPECT_DOUBLE_EQ(ispn.measurement(hop1).config().link_rate, 1e6);

  // Admission headroom follows the per-hop rate: a 1.5 Mb/s guaranteed
  // clock fits the 2 Mb/s hop but not the 1 Mb/s hop.
  core::FlowSpec g;
  g.flow = 900;
  g.service = net::ServiceClass::kGuaranteed;
  g.guaranteed = core::GuaranteedSpec{1.5e6};
  EXPECT_TRUE(
      ispn.admission().request(g, {hop0}, 0.0).admitted);
  const auto refused = ispn.admission().request(g, {hop1}, 0.0);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.rejected_hop, 0);
}

TEST(SpecParsing, JsonKeysAndOverrides) {
  const std::string text = R"({
    # comment survives
    "preset": "parking_lot",
    "scale": "smoke",
    parking_hops: 3,
    link_rate: 2e6,
    "source": "cbr",
    preempt_on_reject: true,
    class_targets: "0.004,0.032",
  })";
  const auto spec = scenario::spec_from_json(text);
  EXPECT_EQ(spec.fabric, scenario::FabricKind::kParkingLot);
  EXPECT_EQ(spec.parking_hops, 3);
  EXPECT_DOUBLE_EQ(spec.link_rate, 2e6);
  EXPECT_EQ(spec.source, scenario::SourceKind::kCbr);
  EXPECT_TRUE(spec.preempt_on_reject);
  ASSERT_EQ(spec.class_targets.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.class_targets[0], 0.004);
  EXPECT_DOUBLE_EQ(spec.class_targets[1], 0.032);
  EXPECT_DOUBLE_EQ(spec.run_seconds, 1.0);  // smoke scale applied first

  scenario::ScenarioSpec base;
  EXPECT_THROW(scenario::apply_override(base, "no_such_key", "1"),
               std::invalid_argument);
  EXPECT_THROW(scenario::apply_override(base, "arrival_rate", "fast"),
               std::invalid_argument);
  EXPECT_THROW(scenario::preset("nope"), std::invalid_argument);
}

TEST(SpecParsing, FailureAndFabricKnobs) {
  scenario::ScenarioSpec spec;
  scenario::apply_override(spec, "fabric", "mesh");
  scenario::apply_override(spec, "mesh_rows", "4");
  scenario::apply_override(spec, "mesh_cols", "2");
  scenario::apply_override(spec, "reroute_policy", "preempt");
  scenario::apply_override(spec, "link_failure_rate", "0.1");
  scenario::apply_override(spec, "link_repair_mean", "2.5");
  scenario::apply_override(spec, "fail_link", "0:2@3.5,up@8");
  scenario::apply_override(spec, "fail_link", "2:4@1");  // stays down
  EXPECT_EQ(spec.fabric, scenario::FabricKind::kMesh);
  EXPECT_EQ(spec.mesh_rows, 4);
  EXPECT_EQ(spec.mesh_cols, 2);
  EXPECT_EQ(spec.reroute_policy, scenario::ReroutePolicy::kPreempt);
  EXPECT_DOUBLE_EQ(spec.link_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.link_repair_mean, 2.5);
  ASSERT_EQ(spec.link_failures.size(), 2u);
  EXPECT_EQ(spec.link_failures[0].src, 0);
  EXPECT_EQ(spec.link_failures[0].dst, 2);
  EXPECT_DOUBLE_EQ(spec.link_failures[0].down_at, 3.5);
  EXPECT_DOUBLE_EQ(spec.link_failures[0].up_at, 8.0);
  EXPECT_LT(spec.link_failures[1].up_at, 0.0);
  EXPECT_NO_THROW(spec.validate());

  EXPECT_THROW(scenario::apply_override(spec, "fail_link", "junk"),
               std::invalid_argument);
  EXPECT_THROW(scenario::apply_override(spec, "fail_link", "0:2"),
               std::invalid_argument);
  EXPECT_THROW(scenario::apply_override(spec, "reroute_policy", "panic"),
               std::invalid_argument);
  // A repair scheduled before the failure is a spec error, not a silent
  // never-up.
  scenario::ScenarioSpec bad;
  bad.fabric = scenario::FabricKind::kMesh;
  scenario::apply_override(bad, "fail_link", "0:2@5,up@3");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Runner, FailureScheduleRejectsUnknownLink) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.link_failure_rate = 0;
  spec.link_failures.push_back({0, 4, 1.0, -1.0});  // not mesh-adjacent
  scenario::ScenarioRunner runner(spec);
  EXPECT_THROW(runner.prepare(), std::invalid_argument);
}

TEST(Runner, SmallLiveAdmissionRunConservesAndReports) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  scenario::apply_scale(spec, "small");
  spec.seed = 3;
  scenario::ScenarioRunner runner(spec);
  const auto report = runner.run();

  EXPECT_TRUE(report.conserved()) << "generated=" << report.generated
                                  << " delivered=" << report.delivered;
  EXPECT_GT(report.flows_offered, 10u);
  EXPECT_GT(report.flows_admitted, 0u);
  EXPECT_GT(report.flows_rejected, 0u) << "churn scenario never rejected";
  EXPECT_EQ(report.flows_offered,
            report.flows_admitted + report.flows_rejected);
  EXPECT_EQ(report.decisions.size() >= report.flows_offered, true);
  EXPECT_GT(report.delivered, 100u);
  EXPECT_EQ(report.queued_end, 0u);
  EXPECT_EQ(report.unclaimed, 0u);
  EXPECT_FALSE(report.links.empty());

  // Per-flow outcomes cover every offered flow, and admitted flows with
  // deliveries carry their path length.
  EXPECT_EQ(report.flows.size(), report.flows_offered);
  for (const auto& f : report.flows) {
    if (f.delivered > 0) {
      EXPECT_TRUE(f.admitted);
      EXPECT_GT(f.hops, 0u);
    }
  }

  // The text and JSON renderings carry the conservation verdict, and the
  // JSON writes doubles at full precision without changing the stream's.
  std::ostringstream text;
  report.to_text(text);
  EXPECT_NE(text.str().find("[OK]"), std::string::npos);
  std::ostringstream json;
  report.to_json(json);
  EXPECT_NE(json.str().find("\"conserved\": true"), std::string::npos);
  char end_time[64];
  std::snprintf(end_time, sizeof end_time, "\"end_time\": %.17g,",
                report.end_time);
  EXPECT_NE(json.str().find(end_time), std::string::npos) << json.str();
  EXPECT_EQ(json.precision(), std::ostringstream().precision());
}

TEST(Report, RendersEveryCounterOfTheTable) {
  scenario::ScenarioReport report;
  std::set<std::string_view> names;
  std::uint64_t value = 1000;
  for (const scenario::ReportCounter& c : scenario::kReportCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate name " << c.name;
    report.*c.field = value++;
  }
  std::ostringstream text;
  report.to_text(text);
  std::ostringstream json;
  report.to_json(json);
  value = 1000;
  for (const scenario::ReportCounter& c : scenario::kReportCounters) {
    const std::string name(c.name);
    const std::string v = std::to_string(value++);
    EXPECT_NE(json.str().find("\"" + name + "\": " + v), std::string::npos)
        << name;
    EXPECT_NE(text.str().find(name + " " + v), std::string::npos) << name;
  }
}

TEST(Runner, PreemptionMakesRoomForGuaranteed) {
  // Saturate a single link with predicted flows, then ask for a
  // guaranteed flow that cannot fit: with preempt_on_reject the youngest
  // predicted flow is torn down and the retry admitted.
  scenario::ScenarioSpec spec;
  spec.fabric = scenario::FabricKind::kChain;
  spec.chain_switches = 2;
  spec.run_seconds = 4.0;
  spec.arrival_rate = 30.0;
  spec.arrival_window = 3.0;
  spec.target_flows = 60;
  spec.mean_hold = 0;  // nobody leaves voluntarily
  spec.p_guaranteed = 0.3;
  spec.p_predicted = 0.7;
  spec.preempt_on_reject = true;
  // Parameter-based admission: releasing a victim's committed rate frees
  // headroom instantly, so the preempt-retry loop can converge.  The loose
  // low class (0.4 s) lets predicted flows accumulate enough committed
  // rate that a guaranteed request hits the 90% quota — the rejection
  // preemption CAN cure (a clock-rate-ledger rejection it cannot).
  spec.admission_mode = core::AdmissionController::Mode::kParameterBased;
  spec.class_targets = {0.008, 0.4};
  spec.target_delay = 0.4;
  spec.avg_rate_pps = 120.0;
  spec.seed = 5;
  scenario::ScenarioRunner runner(spec);
  const auto report = runner.run();

  EXPECT_TRUE(report.conserved());
  EXPECT_GT(report.flows_preempted, 0u) << "no preemption ever triggered";
  bool saw_preempt_then_admit = false;
  for (std::size_t i = 0; i + 1 < report.decisions.size(); ++i) {
    if (report.decisions[i].kind ==
            scenario::AdmissionDecision::Kind::kPreempted &&
        report.decisions[i + 1].kind ==
            scenario::AdmissionDecision::Kind::kAdmitted &&
        report.decisions[i + 1].service == net::ServiceClass::kGuaranteed) {
      saw_preempt_then_admit = true;
    }
  }
  EXPECT_TRUE(saw_preempt_then_admit)
      << "preemption never converted a guaranteed rejection into an admit";
}

}  // namespace
}  // namespace ispn
