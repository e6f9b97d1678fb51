#include "core/builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace ispn::core {

IspnNetwork::IspnNetwork(Config config)
    : config_(std::move(config)),
      admission_(config_.admission) {
  assert(!config_.class_targets.empty());
  assert(std::is_sorted(config_.class_targets.begin(),
                        config_.class_targets.end()));
  // Must precede topology construction: domains are created per switch.
  if (config_.sharded) net_.enable_sharding(config_.link_latency);
}

net::LinkSchedulerFactory IspnNetwork::qos_link_factory() {
  return [this](net::NodeId from, net::NodeId to,
                sim::Rate rate) -> std::unique_ptr<sched::Scheduler> {
    const LinkId link{from, to};
    auto measurement = std::make_unique<LinkMeasurement>(LinkMeasurement::Config{
        rate, static_cast<int>(config_.class_targets.size()),
        config_.measurement_window, config_.measurement_safety,
        config_.measurement_estimator, config_.measurement_ewma_gain});
    LinkMeasurement* meas = measurement.get();
    measurements_[link] = std::move(measurement);

    sched::UnifiedScheduler::Config sched_config{
        rate, config_.buffer_pkts,
        static_cast<int>(config_.class_targets.size()),
        config_.fifo_plus_gain, config_.fifo_plus,
        config_.stale_offset_threshold};
    sched_config.order_backend = config_.order_backend;
    sched_config.hierarchical = config_.hierarchical;
    sched_config.binary_feedback = config_.binary_feedback;
    sched_config.mark_threshold = config_.mark_threshold;
    auto scheduler = std::make_unique<sched::UnifiedScheduler>(sched_config);
    // Stale discards flow through the scheduler's DropSink like every
    // other loss, so the port's drop hook already folds them into the
    // per-flow net_drops counters — no side-channel wiring needed.
    scheduler->set_wait_observer(
        [meas](int klass, sim::Duration wait, sim::Time now) {
          meas->on_class_wait(klass, wait, now);
        });
    schedulers_[link] = scheduler.get();
    link_order_.push_back(link);
    link_rates_[link] = rate;

    admission_.register_link(link, rate, config_.class_targets, meas);
    return scheduler;
  };
}

void IspnNetwork::instrument_links() {
  // Feed the real-time utilisation meters from transmissions.  Ports exist
  // once the topology builder has connected the link, so instrumentation
  // runs as a second pass over everything registered since the last call.
  for (; instrumented_upto_ < link_order_.size(); ++instrumented_upto_) {
    const LinkId link = link_order_[instrumented_upto_];
    LinkMeasurement* meas = measurements_.at(link).get();
    sim::Bits* total = &realtime_bits_[link];
    net::Port* port = net_.port(link.first, link.second);
    assert(port != nullptr && "instrument_links before the link's port exists");
    port->add_tx_hook([meas, total](const net::Packet& p, sim::Time now) {
      if (p.service != net::ServiceClass::kDatagram) {
        meas->on_realtime_tx(p.size_bits, now);
        *total += p.size_bits;
      }
    });
  }
}

net::ChainTopology IspnNetwork::build_chain(int num_switches) {
  auto topo =
      net::build_chain(net_, num_switches, config_.link_rate, qos_link_factory());
  instrument_links();
  return topo;
}

net::FanTreeTopology IspnNetwork::build_fan_tree(
    int depth, int width, std::vector<sim::Rate> level_rates) {
  if (level_rates.empty()) {
    level_rates.assign(static_cast<std::size_t>(depth - 1), config_.link_rate);
  }
  auto topo =
      net::build_fan_tree(net_, depth, width, level_rates, qos_link_factory());
  instrument_links();
  return topo;
}

net::ParkingLotTopology IspnNetwork::build_parking_lot(
    int num_hops, std::vector<sim::Rate> hop_rates) {
  if (hop_rates.empty()) {
    hop_rates.assign(static_cast<std::size_t>(num_hops), config_.link_rate);
  }
  auto topo = net::build_parking_lot(net_, hop_rates, qos_link_factory());
  instrument_links();
  return topo;
}

net::MeshTopology IspnNetwork::build_mesh(int rows, int cols) {
  auto topo =
      net::build_mesh(net_, rows, cols, config_.link_rate, qos_link_factory());
  instrument_links();
  return topo;
}

net::RingTopology IspnNetwork::build_ring(int num_switches) {
  auto topo =
      net::build_ring(net_, num_switches, config_.link_rate, qos_link_factory());
  instrument_links();
  return topo;
}

net::ClosTopology IspnNetwork::build_clos(int spines, int leaves) {
  auto topo =
      net::build_clos(net_, spines, leaves, config_.link_rate, qos_link_factory());
  instrument_links();
  return topo;
}

std::vector<LinkId> IspnNetwork::route_links(net::NodeId src,
                                             net::NodeId dst) const {
  std::vector<LinkId> links;
  const auto path = net_.route(src, dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    // Only inter-switch links queue; host attachments are infinitely fast.
    if (schedulers_.contains({path[i], path[i + 1]})) {
      links.emplace_back(path[i], path[i + 1]);
    }
  }
  return links;
}

void IspnNetwork::index_add(const LinkId& link, net::FlowId flow) {
  auto& flows = link_flows_[link];
  if (std::find(flows.begin(), flows.end(), flow) == flows.end()) {
    flows.push_back(flow);
  }
}

void IspnNetwork::index_remove(const LinkId& link, net::FlowId flow) {
  auto it = link_flows_.find(link);
  if (it == link_flows_.end()) return;
  auto& flows = it->second;
  flows.erase(std::remove(flows.begin(), flows.end(), flow), flows.end());
}

std::vector<net::FlowId> IspnNetwork::flows_crossing(net::NodeId a,
                                                     net::NodeId b) const {
  std::vector<net::FlowId> out;
  for (const LinkId& dir : {LinkId{a, b}, LinkId{b, a}}) {
    auto it = link_flows_.find(dir);
    if (it == link_flows_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void IspnNetwork::configure_flow(const FlowHandle& handle) {
  const FlowSpec& spec = handle.spec;
  if (spec.service == net::ServiceClass::kGuaranteed) {
    for (const LinkId& link : handle.links) {
      schedulers_.at(link)->add_guaranteed(spec.flow,
                                           spec.guaranteed->clock_rate);
      index_add(link, spec.flow);
    }
  } else if (spec.service == net::ServiceClass::kPredicted) {
    assert(handle.commitment.priority_per_hop.size() == handle.links.size());
    for (std::size_t i = 0; i < handle.links.size(); ++i) {
      schedulers_.at(handle.links[i])
          ->set_predicted_priority(spec.flow,
                                   handle.commitment.priority_per_hop[i]);
      index_add(handle.links[i], spec.flow);
    }
  }
}

IspnNetwork::FlowHandle IspnNetwork::try_open_flow(const FlowSpec& spec) {
  assert(spec.valid());
  FlowHandle handle;
  handle.spec = spec;
  // A partitioned destination (crashed switch, failed links) yields an
  // EMPTY route; admission would vacuously accept the hop-less path and
  // commit to a service no packet can receive.  Refuse instead.
  if (net_.route(spec.src, spec.dst).empty()) {
    handle.commitment.reason = "unreachable";
    return handle;
  }
  handle.links = route_links(spec.src, spec.dst);
  handle.commitment =
      admission_.request(spec, handle.links, net_.sim().now());
  // A rejected flow configures nothing: every scheduler and ledger along
  // the path is exactly as if the request had never been made.
  if (handle.commitment.admitted) configure_flow(handle);
  return handle;
}

IspnNetwork::FlowHandle IspnNetwork::open_flow(const FlowSpec& spec) {
  assert(spec.valid());
  FlowHandle handle;
  handle.spec = spec;
  handle.links = route_links(spec.src, spec.dst);
  handle.commitment =
      admission_.request(spec, handle.links, net_.sim().now());

  if (!handle.commitment.admitted) {
    if (config_.enforce_admission) {
      throw std::runtime_error("admission rejected " + describe(spec) + ": " +
                               handle.commitment.reason);
    }
    // Forced configuration (paper-style static experiments): pick the
    // cheapest adequate class exactly as admission would have.
    if (spec.service == net::ServiceClass::kPredicted) {
      const double per_hop = spec.predicted->target_delay /
                             static_cast<double>(handle.links.size());
      int chosen = 0;
      for (int j = static_cast<int>(config_.class_targets.size()) - 1; j >= 0;
           --j) {
        if (config_.class_targets[static_cast<std::size_t>(j)] <= per_hop) {
          chosen = j;
          break;
        }
      }
      handle.commitment.priority_per_hop.assign(handle.links.size(), chosen);
      handle.commitment.advertised_bound =
          static_cast<double>(handle.links.size()) *
          config_.class_targets[static_cast<std::size_t>(chosen)];
    }
  }

  configure_flow(handle);
  return handle;
}

void IspnNetwork::close_flow(const FlowHandle& handle) {
  const FlowSpec& spec = handle.spec;
  if (spec.service == net::ServiceClass::kDatagram) return;
  if (handle.commitment.admitted &&
      !admission_.release(spec, handle.links)) {
    // The ledger shows no commitment: an earlier close or a reroute
    // already released this flow (and deregistered its schedulers).
    // Proceeding would hand the bandwidth back a second time.
    return;
  }
  if (spec.service == net::ServiceClass::kGuaranteed) {
    for (const LinkId& link : handle.links) {
      schedulers_.at(link)->remove_guaranteed(spec.flow);
      index_remove(link, spec.flow);
    }
  } else {
    for (const LinkId& link : handle.links) {
      schedulers_.at(link)->remove_predicted(spec.flow);
      index_remove(link, spec.flow);
    }
  }
}

IspnNetwork::RerouteOutcome IspnNetwork::reroute_flow(
    FlowHandle& handle, bool degrade_to_datagram) {
  FlowSpec& spec = handle.spec;
  assert(spec.service != net::ServiceClass::kDatagram &&
         "datagram flows follow the routing tables; nothing to re-offer");
  assert(handle.commitment.admitted && "reroute is for admitted flows");
  const sim::Time now = net_.sim().now();
  const std::vector<LinkId> old_links = handle.links;
  const std::vector<LinkId> new_links = route_links(spec.src, spec.dst);
  const bool reachable = !net_.route(spec.src, spec.dst).empty();

  // Removes this flow from one link's scheduler.  Guaranteed packets still
  // queued there are casualties of the path change — they would otherwise
  // pin a WFQ registration whose clock rate we are about to hand back.
  auto expel = [&](const LinkId& link) {
    if (spec.service == net::ServiceClass::kGuaranteed) {
      schedulers_.at(link)->expel_guaranteed(
          spec.flow, now, [this, &spec](net::PacketPtr, sim::Time) {
            ++net_.stats(spec.flow).failed_link_drops;
          });
    } else {
      schedulers_.at(link)->remove_predicted(spec.flow);
    }
    index_remove(link, spec.flow);
  };

  // Release first: the re-offer must compete against live state that no
  // longer counts this flow's own reservation.  Idempotent, so a racing
  // teardown cannot double-release.
  admission_.release(spec, old_links);

  if (!reachable) {
    for (const LinkId& link : old_links) expel(link);
    handle.links.clear();
    handle.commitment = ServiceCommitment{};
    return RerouteOutcome::kOrphaned;
  }

  ServiceCommitment fresh = admission_.request(spec, new_links, now);
  if (fresh.admitted) {
    if (spec.service == net::ServiceClass::kGuaranteed) {
      // Links on both the old and new path keep their registration and
      // their queued packets — only the divergence changes hands.
      for (const LinkId& link : old_links) {
        if (std::find(new_links.begin(), new_links.end(), link) ==
            new_links.end()) {
          expel(link);
        }
      }
      for (const LinkId& link : new_links) {
        if (std::find(old_links.begin(), old_links.end(), link) ==
            old_links.end()) {
          schedulers_.at(link)->add_guaranteed(spec.flow,
                                               spec.guaranteed->clock_rate);
          index_add(link, spec.flow);
        }
      }
    } else {
      for (const LinkId& link : old_links) {
        if (std::find(new_links.begin(), new_links.end(), link) ==
            new_links.end()) {
          schedulers_.at(link)->remove_predicted(spec.flow);
          index_remove(link, spec.flow);
        }
      }
      assert(fresh.priority_per_hop.size() == new_links.size());
      for (std::size_t i = 0; i < new_links.size(); ++i) {
        schedulers_.at(new_links[i])
            ->set_predicted_priority(spec.flow, fresh.priority_per_hop[i]);
        index_add(new_links[i], spec.flow);
      }
    }
    handle.links = new_links;
    handle.commitment = std::move(fresh);
    return RerouteOutcome::kRerouted;
  }

  // Refused on the new path: this flow's reservation is gone everywhere.
  for (const LinkId& link : old_links) expel(link);
  if (degrade_to_datagram) {
    spec.service = net::ServiceClass::kDatagram;
    spec.guaranteed.reset();
    spec.predicted.reset();
    handle.links = new_links;
    handle.commitment = ServiceCommitment{};
    handle.commitment.admitted = true;  // datagram service is never refused
    return RerouteOutcome::kDegraded;
  }
  handle.links.clear();
  handle.commitment = ServiceCommitment{};
  return RerouteOutcome::kClosed;
}

traffic::OnOffSource& IspnNetwork::attach_onoff_source(
    const FlowHandle& handle, traffic::OnOffSource::Config config,
    std::uint64_t stream, std::optional<traffic::TokenBucketSpec> police) {
  const FlowSpec& spec = handle.spec;
  if (!police && spec.service == net::ServiceClass::kPredicted) {
    // Predicted flows are policed at the network edge with the declared
    // filter (paper §8); source-side dropping is equivalent in simulation
    // since host links are infinitely fast.
    police = spec.predicted->bucket;
  }
  net::Host& host = net_.host(spec.src);
  auto source = std::make_unique<traffic::OnOffSource>(
      net_.sim_for(spec.src), config, sim::Rng(config_.seed, stream),
      spec.flow, spec.src, spec.dst,
      [&host](net::PacketPtr p) { host.inject(std::move(p)); },
      &net_.stats(spec.flow), police);
  const std::uint8_t priority =
      handle.commitment.priority_per_hop.empty()
          ? 0
          : static_cast<std::uint8_t>(handle.commitment.priority_per_hop[0]);
  source->set_service(spec.service, priority);
  source->set_pool(&net_.pool_for(spec.src));
  auto& ref = *source;
  sources_.push_back(std::move(source));
  return ref;
}

std::pair<traffic::TcpSource&, traffic::TcpSink&> IspnNetwork::attach_tcp(
    const FlowHandle& handle, traffic::TcpSource::Config config) {
  const FlowSpec& spec = handle.spec;
  assert(spec.service == net::ServiceClass::kDatagram);
  net::Host& src_host = net_.host(spec.src);
  net::Host& dst_host = net_.host(spec.dst);
  // Each endpoint lives on its own host's clock: in a sharded run that is
  // the owning domain's simulator and packet pool, classically the global
  // ones.
  sim::Simulator& src_sim = net_.sim_for(spec.src);
  sim::Simulator& dst_sim = net_.sim_for(spec.dst);

  auto source = std::make_unique<traffic::TcpSource>(
      src_sim, config, spec.flow, spec.src, spec.dst,
      [&src_host](net::PacketPtr p) { src_host.inject(std::move(p)); },
      &net_.stats(spec.flow));
  auto sink = std::make_unique<traffic::TcpSink>(
      dst_sim, config, spec.flow, spec.dst, spec.src,
      [&dst_host](net::PacketPtr p) { dst_host.inject(std::move(p)); });
  sink->set_stats(&net_.stats(spec.flow));
  source->set_pool(&net_.pool_for(spec.src));
  sink->set_pool(&net_.pool_for(spec.dst));

  // ACKs arrive back at the source host; data arrives at the destination
  // behind the stats recorder.
  src_host.register_sink(spec.flow, source.get());
  net_.attach_stats_sink(spec.flow, spec.dst, sink.get());

  auto& src_ref = *source;
  auto& sink_ref = *sink;
  tcp_sources_.push_back(std::move(source));
  tcp_sinks_.push_back(std::move(sink));
  return {src_ref, sink_ref};
}

void IspnNetwork::attach_sink(const FlowHandle& handle, net::FlowSink* app) {
  net_.attach_stats_sink(handle.spec.flow, handle.spec.dst, app);
}

sim::Duration IspnNetwork::guaranteed_bound(
    const FlowHandle& handle, const traffic::TokenBucketSpec& bucket,
    sim::Bits packet_bits) const {
  assert(handle.spec.service == net::ServiceClass::kGuaranteed);
  return pg_paper_bound(bucket, handle.links.size(), packet_bits);
}

double IspnNetwork::link_utilization(LinkId link, sim::Time now) {
  return net_.port(link.first, link.second)->utilization(now);
}

double IspnNetwork::realtime_utilization(LinkId link, sim::Time now) const {
  if (now <= 0) return 0.0;
  auto it = realtime_bits_.find(link);
  if (it == realtime_bits_.end()) return 0.0;
  return it->second / (link_rates_.at(link) * now);
}

}  // namespace ispn::core
