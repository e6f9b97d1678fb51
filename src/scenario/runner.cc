#include "scenario/runner.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "traffic/cbr_source.h"
#include "traffic/onoff_source.h"
#include "traffic/poisson_source.h"

namespace ispn::scenario {

namespace {

/// Rng stream ids: the workload stream and the per-flow source streams
/// must never collide — flow ids are 32-bit, so basing the source
/// streams above 2^32 keeps them disjoint from any small constant.
constexpr std::uint64_t kWorkloadStream = 0xFAB;
constexpr std::uint64_t kSourceStreamBase = 1ull << 32;

/// The class a flow's packets enter the network at (the first hop's).
std::uint8_t first_hop_priority(const core::IspnNetwork::FlowHandle& h) {
  const auto& per_hop = h.commitment.priority_per_hop;
  return per_hop.empty() ? 0 : static_cast<std::uint8_t>(per_hop[0]);
}
}  // namespace

void ScenarioRunner::Sink::on_packet(net::PacketPtr p, sim::Time now) {
  const double delay = p->queueing_delay;
  ++rec_->delivered;
  if (delay > rec_->max_delay_all) rec_->max_delay_all = delay;
  ClassStats& cls = agg_->classes[static_cast<std::size_t>(p->service)];
  cls.add_delay(delay);
  // Stragglers generated before a reroute carry the old path epoch: they
  // count globally, but must not score against the NEW path's bound, nor
  // fake jitter across the path change.
  if (p->path_epoch == rec_->epoch) {
    if (delay > rec_->max_delay) rec_->max_delay = delay;
    // Jitter is within-flow: the previous delay belongs to this flow, so
    // interleaved deliveries of other flows cannot fake it.
    if (rec_->has_last) {
      cls.jitter.add(delay > rec_->last_delay ? delay - rec_->last_delay
                                              : rec_->last_delay - delay);
    }
    rec_->last_delay = delay;
    rec_->has_last = true;
  }
  ++agg_->delivered;
  if (next_ != nullptr) next_->on_packet(std::move(p), now);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_((spec.validate(), std::move(spec))),
      ispn_(spec_.network_config()),
      rng_(spec_.seed, kWorkloadStream) {}

sim::Time ScenarioRunner::ctl(sim::Time t) const {
  if (spec_.shards < 1) return t;
  // Smallest grid multiple at or after t: control events must land on
  // window barriers so they never execute concurrently with domain work
  // (and never split a window, which would perturb seq tie-breaks).
  const sim::Duration L = spec_.link_latency;
  auto m = static_cast<std::uint64_t>(t / L);
  while (static_cast<double>(m) * L < t) ++m;
  return static_cast<double>(m) * L;
}

void ScenarioRunner::prepare() {
  if (prepared_) return;
  prepared_ = true;
  if ((spec_.preempt_on_reject ||
       spec_.reroute_policy == ReroutePolicy::kPreempt) &&
      spec_.measurement_estimator ==
          core::LinkMeasurement::Estimator::kPeakEpoch) {
    // The time-window peak estimator holds a torn-down flow's peak for a
    // full window, so the capacity a preemption frees is invisible to the
    // very re-admission it was meant to enable — preemption silently
    // never helps.  Warn once per process; presets that enable preemption
    // (churn, failure) already pair it with the EWMA estimator.
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fputs(
          "scenario: warning: preemption is configured with the peak "
          "measurement estimator; nu-hat will not decay when victims are "
          "torn down, so preemption frees no admissible capacity.  Use "
          "measurement_estimator=ewma.\n",
          stderr);
    }
  }
  fabric_ = build_fabric(ispn_, spec_);
  if (net().sharded()) {
    engine_ = std::make_unique<sim::ShardedEngine>(
        net().sim(), spec_.link_latency, spec_.shards);
    // Weigh each domain by the distinct pairs the workload draws its
    // flows from.
    std::set<Fabric::OdPair> od(fabric_.od_long.begin(), fabric_.od_long.end());
    od.insert(fabric_.od_short.begin(), fabric_.od_short.end());
    net().attach(*engine_, {od.begin(), od.end()});
    aggs_.resize(net().num_domains());
    if (tracer_ != nullptr) tracer_->shard(net().num_domains());
  } else {
    aggs_.resize(1);
  }
  schedule_failures();
  if (spec_.invariant_cadence > 0) {
    monitor_ = std::make_unique<InvariantMonitor>(ispn_);
    schedule_audit();
  }
  arrival_deadline_ = spec_.arrival_window > 0
                          ? std::min(spec_.arrival_window, spec_.run_seconds)
                          : spec_.run_seconds;

  if (spec_.arrival_rate > 0) {
    schedule_next_arrival();
  } else {
    // Bench/soak mode: one deterministic batch at t=0, source starts
    // staggered across roughly one mean inter-packet gap so emissions
    // interleave instead of bursting in lockstep.
    const double spread =
        spec_.avg_rate_pps * std::max(1, spec_.target_flows);
    for (int f = 0; f < spec_.target_flows; ++f) {
      const core::FlowSpec fs = draw_spec();
      open_flow(fs, static_cast<double>(f) / spread);
    }
  }
  net().sim().at(ctl(spec_.run_seconds), [this] { stop_all(); });
}

void ScenarioRunner::schedule_next_arrival() {
  const sim::Time next =
      net().sim().now() + rng_.exponential(1.0 / spec_.arrival_rate);
  if (next > arrival_deadline_) return;
  net().sim().at(ctl(next), [this] { on_arrival(); });
}

void ScenarioRunner::schedule_failures() {
  net::FailureSchedule schedule;

  // Explicit failures first, validated against the as-built graph so a
  // typoed --fail-link fails loudly instead of silently never firing.
  for (const LinkFailureSpec& f : spec_.link_failures) {
    const auto& adj = net().adjacency();
    const auto it = adj.find(f.src);
    if (it == adj.end() || std::find(it->second.begin(), it->second.end(),
                                     f.dst) == it->second.end()) {
      throw std::invalid_argument("fail_link: no link " +
                                  std::to_string(f.src) + "<->" +
                                  std::to_string(f.dst) + " in this fabric");
    }
    schedule.push_back({f.down_at, f.src, f.dst, false});
    if (f.up_at >= 0) schedule.push_back({f.up_at, f.src, f.dst, true});
  }

  for (const net::LinkEvent& ev : schedule) {
    net().sim().at(ctl(ev.time),
                   [this, ev] { on_link_event(ev.a, ev.b, ev.up); });
  }

  // Seeded generator: the fault plane (src/fault) draws the complete
  // multi-family schedule up front on dedicated Rng streams — link
  // failures byte-identical to the PR 6 generator, plus switch crashes,
  // brown-outs, loss episodes and flap bursts on their own streams — so
  // fault churn never perturbs the workload stream's call order, and
  // enabling one family never moves another family's events.
  const fault::FaultSpec fspec = spec_.fault_spec();
  if (!fspec.any()) return;
  std::vector<std::pair<net::NodeId, net::NodeId>> ulinks;
  std::set<std::pair<net::NodeId, net::NodeId>> seen;
  for (const core::LinkId& link : ispn_.links()) {
    const auto key = net::undirected(link.first, link.second);
    if (seen.insert(key).second) ulinks.push_back(key);
  }
  std::vector<net::NodeId> switches;
  for (const auto& [id, neighbors] : net().adjacency()) {
    (void)neighbors;
    if (!net().is_host(id)) switches.push_back(id);  // map order: ascending
  }
  const fault::FaultSchedule faults = fault::draw_schedule(
      fspec, ulinks, switches, spec_.seed, spec_.run_seconds);
  for (const fault::FaultEvent& ev : faults) {
    switch (ev.kind) {
      case fault::FaultKind::kLinkDown:
      case fault::FaultKind::kLinkUp:
        net().sim().at(ctl(ev.time), [this, ev] {
          on_link_event(ev.a, ev.b, ev.kind == fault::FaultKind::kLinkUp);
        });
        break;
      case fault::FaultKind::kNodeDown:
      case fault::FaultKind::kNodeUp:
        net().sim().at(ctl(ev.time), [this, ev] {
          on_node_event(ev.a, ev.kind == fault::FaultKind::kNodeUp);
        });
        break;
      case fault::FaultKind::kBrownoutStart:
      case fault::FaultKind::kBrownoutEnd:
        net().sim().at(ctl(ev.time), [this, ev] {
          on_brownout(ev.a, ev.b,
                      ev.kind == fault::FaultKind::kBrownoutStart, ev.value);
        });
        break;
      case fault::FaultKind::kLossStart:
      case fault::FaultKind::kLossEnd:
        net().sim().at(ctl(ev.time), [this, ev] {
          on_loss(ev.a, ev.b, ev.kind == fault::FaultKind::kLossStart,
                  ev.value);
        });
        break;
    }
  }
}

void ScenarioRunner::on_link_event(net::NodeId a, net::NodeId b, bool up) {
  // Overlapping explicit + generated events may agree on the state; the
  // first one wins and the rest collapse to no-ops.
  if (net().link_up(a, b) == up) return;
  net().set_link_up(a, b, up);
  if (up) {
    ++report_.links_repaired;
    // A recovered link can shorten the path of a flow that never crossed
    // it, so recovery must sweep every active flow.
    revalidate_flows(active_);
  } else {
    ++report_.links_failed;
    // A downed link only disturbs flows registered across it — removing
    // an edge cannot shorten anyone else's shortest path — so the
    // per-link index bounds this sweep by the crossing flows.
    revalidate_flows(ispn_.flows_crossing(a, b));
  }
}

void ScenarioRunner::on_node_event(net::NodeId node, bool up) {
  if (net().node_up(node) == up) return;  // overlapping events collapse
  if (up) {
    ++report_.nodes_recovered;
    net().set_node_up(node, true);
    // Recovery can shorten the path of flows that never touched this
    // switch, so it sweeps everything (same rule as a link repair).
    revalidate_flows(active_);
    return;
  }
  ++report_.nodes_crashed;
  // Gather the union of flows crossing ANY incident link before the
  // flush — the per-link index is exact for downs, and a crash is one
  // atomic down of the whole incident star.
  std::vector<net::FlowId> affected;
  for (const net::NodeId v : net().adjacency().at(node)) {
    const std::vector<net::FlowId> crossing = ispn_.flows_crossing(node, v);
    affected.insert(affected.end(), crossing.begin(), crossing.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  // One call: flips membership first (so the port-flush hooks attribute
  // casualties to node_failure_drops), transitions every incident port,
  // then recomputes routes ONCE for the whole star.
  net().set_node_up(node, false);
  revalidate_flows(affected);
}

void ScenarioRunner::on_brownout(net::NodeId a, net::NodeId b, bool start,
                                 double fraction) {
  const sim::Time now = net().sim().now();
  if (start) ++report_.brownouts;
  const core::LinkId fwd{a, b};
  const core::LinkId rev{b, a};
  const sim::Rate target =
      start ? ispn_.link_base_rate(fwd) * fraction : ispn_.link_base_rate(fwd);
  // Ordering discipline: the ADMISSION plane re-rates first, so the shed
  // pass evaluates §9 against the reduced mu; the DATA plane (schedulers,
  // ports) re-rates last, after shedding guarantees the committed clock
  // rates fit under the new capacity (the schedulers' flow0 weight
  // mu - guaranteed must stay positive).
  for (const core::LinkId& link : {fwd, rev}) {
    ispn_.admission().set_link_rate(link, target);
    ispn_.measurement(link).set_link_rate(target);
  }
  if (start) {
    shed_overcommit(fwd);
    shed_overcommit(rev);
  }
  for (const core::LinkId& link : {fwd, rev}) {
    ispn_.scheduler(link).set_link_rate(target, now);
  }
  net().set_link_rate(a, b, target);
}

void ScenarioRunner::shed_overcommit(core::LinkId link) {
  core::AdmissionController& adm = ispn_.admission();
  const double share =
      (1.0 - adm.config().datagram_quota) * adm.link_rate(link);
  // Degrade-to-datagram cascade: predicted before guaranteed (the softer
  // commitment sheds first), youngest first within each class.  Each
  // victim is RE-OFFERED, not blindly shed — admission against the
  // reduced mu decides, so a survivor that still fits is kept silently.
  // The guaranteed pass terminates: while the committed clock rates
  // exceed the non-datagram share, every guaranteed re-offer necessarily
  // refuses (the oversubscription check), releasing its rate.
  for (const net::ServiceClass cls :
       {net::ServiceClass::kPredicted, net::ServiceClass::kGuaranteed}) {
    const auto over = [&] {
      return cls == net::ServiceClass::kGuaranteed
                 ? adm.guaranteed_rate(link) >= share
                 : adm.guaranteed_rate(link) + adm.predicted_rate(link) >
                       share;
    };
    const std::vector<net::FlowId> crossing =
        ispn_.flows_crossing(link.first, link.second);
    for (auto it = crossing.rbegin(); it != crossing.rend() && over(); ++it) {
      FlowRec& rec = flows_[static_cast<std::size_t>(*it)];
      if (!rec.active || rec.handle.spec.service != cls) continue;
      reoffer_flow(*it);
    }
  }
}

void ScenarioRunner::on_loss(net::NodeId a, net::NodeId b, bool start,
                             double prob) {
  if (start) ++report_.loss_episodes;
  for (const core::LinkId& link : {core::LinkId{a, b}, core::LinkId{b, a}}) {
    net::Port* port = net().port(link.first, link.second);
    if (port == nullptr) continue;
    // Dedicated per-port Bernoulli stream: reseeded at every episode
    // start, so the drop pattern depends only on (seed, port, packets
    // transmitted during the episode) — never on other links' episodes.
    port->set_loss(start ? prob : 0.0, spec_.seed,
                   fault::kPortLossStreamBase |
                       (static_cast<std::uint64_t>(link.first) << 16) |
                       static_cast<std::uint64_t>(link.second));
  }
}

void ScenarioRunner::schedule_restore(net::FlowId flow) {
  if (spec_.readmit_backoff <= 0 || halted_) return;
  FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
  if (rec.restore_attempts >= spec_.readmit_max_attempts) return;
  // Capped exponential backoff, grown BEFORE scheduling so the first
  // retry waits the base period.
  rec.restore_backoff =
      rec.restore_backoff <= 0
          ? spec_.readmit_backoff
          : std::min(rec.restore_backoff * spec_.readmit_backoff_factor,
                     spec_.readmit_backoff_max);
  const sim::Time t = net().sim().now() + rec.restore_backoff;
  if (t >= spec_.run_seconds) return;  // the run ends before the retry
  net().sim().at(ctl(t), [this, flow] { try_restore(flow); });
}

void ScenarioRunner::try_restore(net::FlowId flow) {
  FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
  if (halted_ || !rec.active || !rec.degraded || !rec.saved_spec) return;
  const core::FlowSpec want = *rec.saved_spec;
  ++rec.restore_attempts;
  ++report_.restore_attempts;
  // Offer the original service on the CURRENT shortest path.  The flow
  // holds no commitment while degraded, so this is a fresh §9 admission
  // against the live measurements.
  if (!net().route(want.src, want.dst).empty()) {
    core::IspnNetwork::FlowHandle h = ispn_.try_open_flow(want);
    if (h.commitment.admitted) {
      rec.handle = std::move(h);
      rec.degraded = false;
      rec.restore_attempts = 0;
      rec.restore_backoff = 0;
      ++report_.flows_restored;
      rec.bound = want.service == net::ServiceClass::kGuaranteed
                      ? pg_bound(rec.handle)
                      : rec.handle.commitment.advertised_bound.value_or(0.0);
      rec.source->set_service(rec.handle.spec.service,
                              first_hop_priority(rec.handle));
      bump_epoch(rec);
      AdmissionDecision d;
      d.time = net().sim().now();
      d.flow = flow;
      d.service = want.service;
      d.kind = AdmissionDecision::Kind::kRestored;
      report_.decisions.push_back(d);
      return;
    }
  }
  schedule_restore(flow);  // refused (or still unreachable): back off more
}

void ScenarioRunner::schedule_audit() {
  const sim::Time t = net().sim().now() + spec_.invariant_cadence;
  if (t >= spec_.run_seconds) return;  // finish() audits the final state
  net().sim().at(ctl(t), [this] {
    if (halted_) return;  // draining: the run-end audit covers the rest
    audit_now();
    schedule_audit();
  });
}

template <class Ledger>
void ScenarioRunner::add_flow_buckets(Ledger& out) {
  for (const FlowRec& rec : flows_) {
    const net::FlowStats& st = net().stats(rec.handle.spec.flow);
    out.generated += st.generated;
    out.source_drops += st.source_drops;
    out.injected += st.injected;
    out.net_drops += st.net_drops;
    out.failed_link_drops += st.failed_link_drops;
    out.node_failure_drops += st.node_failure_drops;
    out.fault_drops += st.fault_drops;
  }
}

double ScenarioRunner::pg_bound(
    const core::IspnNetwork::FlowHandle& handle) const {
  const traffic::TokenBucketSpec bucket{
      handle.spec.guaranteed->clock_rate,
      sim::paper::kBucketPackets * spec_.packet_bits};
  return ispn_.guaranteed_bound(handle, bucket, spec_.packet_bits);
}

std::size_t ScenarioRunner::audit_now() {
  if (!monitor_) return 0;
  InvariantMonitor::Ledger led;
  add_flow_buckets(led);
  led.delivered = delivered();
  led.queued = queued_now();
  led.in_transit = net().handoff_in_transit();
  for (const auto& [id, neighbors] : net().adjacency()) {
    (void)neighbors;
    if (net().is_host(id)) led.unclaimed += net().host(id).unclaimed();
  }
  return monitor_->audit(net().sim().now(), led);
}

void ScenarioRunner::revalidate_flows(
    const std::vector<net::FlowId>& candidates) {
  // Forwarding is destination-based: once the routing tables change, a
  // flow's packets follow the NEW shortest path regardless of where its
  // scheduler registrations live.  So every candidate admitted real-time
  // flow whose registered links differ from the current route must be
  // re-offered — including flows whose old path still physically exists.
  const std::vector<net::FlowId> snapshot = candidates;
  for (const net::FlowId flow : snapshot) {
    FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
    if (!rec.active) continue;  // torn down earlier in this sweep
    if (!rec.handle.commitment.admitted) continue;
    if (rec.handle.spec.service == net::ServiceClass::kDatagram) continue;
    const net::NodeId src = rec.handle.spec.src;
    const net::NodeId dst = rec.handle.spec.dst;
    const bool reachable = !net().route(src, dst).empty();
    if (reachable && ispn_.route_links(src, dst) == rec.handle.links) {
      continue;  // path survived this event untouched
    }
    reoffer_flow(flow);
  }
}

void ScenarioRunner::reoffer_flow(net::FlowId flow) {
  const sim::Time now = net().sim().now();
  FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
  // reroute_flow rewrites the spec on degrade; record the decision under
  // the service the flow HELD when the fault hit, and save the original
  // spec so a later restore can offer what the client asked for.
  const net::ServiceClass original = rec.handle.spec.service;
  const core::FlowSpec original_spec = rec.handle.spec;
  const std::vector<core::LinkId> old_links = rec.handle.links;
  const auto outcome = ispn_.reroute_flow(
      rec.handle, spec_.reroute_policy == ReroutePolicy::kDegrade);

  AdmissionDecision d;
  d.time = now;
  d.flow = flow;
  d.service = original;
  switch (outcome) {
    case core::IspnNetwork::RerouteOutcome::kRerouted: {
      if (rec.handle.links == old_links) {
        // Re-validated in place: the brown-out shed pass re-offered a
        // survivor and admission re-granted the same path.  No decision,
        // no epoch bump — but the fresh commitment may carry a different
        // class assignment, so the source's priority stamp refreshes.
        rec.bound =
            rec.handle.commitment.advertised_bound.value_or(rec.bound);
        rec.source->set_service(rec.handle.spec.service,
                                first_hop_priority(rec.handle));
        return;
      }
      ++report_.flows_rerouted;
      ++rec.reroutes;
      rec.bound =
          original == net::ServiceClass::kGuaranteed
              ? pg_bound(rec.handle)
              : rec.handle.commitment.advertised_bound.value_or(rec.bound);
      // The new path may carry a different per-hop class assignment.
      rec.source->set_service(rec.handle.spec.service,
                              first_hop_priority(rec.handle));
      bump_epoch(rec);
      d.kind = AdmissionDecision::Kind::kRerouted;
      break;
    }
    case core::IspnNetwork::RerouteOutcome::kDegraded:
      ++report_.flows_degraded;
      rec.degraded = true;
      rec.bound = 0;
      rec.source->set_service(net::ServiceClass::kDatagram, 0);
      bump_epoch(rec);
      d.kind = AdmissionDecision::Kind::kDegraded;
      if (!rec.saved_spec) {
        rec.saved_spec = std::make_unique<core::FlowSpec>(original_spec);
      }
      rec.restore_attempts = 0;
      rec.restore_backoff = 0;
      schedule_restore(flow);
      break;
    case core::IspnNetwork::RerouteOutcome::kClosed:
    case core::IspnNetwork::RerouteOutcome::kOrphaned:
      rec.source->stop();
      rec.active = false;
      rec.closed = now;
      --open_count_;
      active_.erase(std::find(active_.begin(), active_.end(), flow));
      if (outcome == core::IspnNetwork::RerouteOutcome::kClosed) {
        ++report_.flows_preempted;
        d.kind = AdmissionDecision::Kind::kPreempted;
      } else {
        ++report_.flows_orphaned;
        d.kind = AdmissionDecision::Kind::kOrphaned;
      }
      break;
  }
  report_.decisions.push_back(d);
}

void ScenarioRunner::bump_epoch(FlowRec& rec) {
  // New path, new epoch: subsequent packets are stamped with it, the
  // per-epoch delay peak restarts (the recomputed bound applies only to
  // packets that actually travel the new path), and the jitter chain
  // breaks so the path-length step never masquerades as jitter.
  ++rec.epoch;
  ++rec.epochs_seen;
  rec.max_delay = 0;
  rec.has_last = false;
  rec.source->set_epoch(rec.epoch);
}

void ScenarioRunner::on_arrival() {
  if (halted_) return;  // finish() ended the workload; drain only
  if (open_count_ < spec_.target_flows) {
    const core::FlowSpec fs = draw_spec();
    open_flow(fs, 0.0);
  }
  schedule_next_arrival();
}

core::FlowSpec ScenarioRunner::draw_spec() {
  core::FlowSpec fs;
  fs.flow = next_flow_++;

  const bool want_long = rng_.bernoulli(spec_.long_flow_fraction);
  const auto& primary = want_long ? fabric_.od_long : fabric_.od_short;
  const auto& fallback = want_long ? fabric_.od_short : fabric_.od_long;
  const auto& pool = primary.empty() ? fallback : primary;
  assert(!pool.empty() && "fabric offered no origin-destination pairs");
  const Fabric::OdPair od = pool[rng_.below(pool.size())];
  fs.src = od.first;
  fs.dst = od.second;

  const sim::Rate avg_bps = spec_.avg_rate_pps * spec_.packet_bits;
  const sim::Bits depth = sim::paper::kBucketPackets * spec_.packet_bits;
  const double u = rng_.uniform();
  if (u < spec_.p_guaranteed) {
    fs.service = net::ServiceClass::kGuaranteed;
    fs.guaranteed = core::GuaranteedSpec{avg_bps * spec_.peak_factor};
  } else if (u < spec_.p_guaranteed + spec_.p_predicted) {
    fs.service = net::ServiceClass::kPredicted;
    fs.predicted = core::PredictedSpec{
        {avg_bps, depth}, spec_.target_delay, spec_.target_loss};
  } else {
    fs.service = net::ServiceClass::kDatagram;
  }
  return fs;
}

void ScenarioRunner::open_flow(const core::FlowSpec& fs,
                               sim::Duration start_offset) {
  assert(static_cast<std::size_t>(fs.flow) == flows_.size());
  const sim::Time now = net().sim().now();
  flows_.emplace_back();
  FlowRec& rec = flows_.back();
  rec.opened = now;

  auto outcome = [&](const core::IspnNetwork::FlowHandle& h) {
    AdmissionDecision d;
    d.time = now;
    d.flow = fs.flow;
    d.service = fs.service;
    d.kind = h.commitment.admitted ? AdmissionDecision::Kind::kAdmitted
                                   : AdmissionDecision::Kind::kRejected;
    d.rejected_hop = h.commitment.rejected_hop;
    d.reason = h.commitment.reason;
    return d;
  };

  rec.handle = ispn_.try_open_flow(fs);
  report_.decisions.push_back(outcome(rec.handle));
  // Guaranteed rejections may make room by evicting predicted flows on
  // the refusing hop, one victim per retry.  Each eviction releases the
  // victim's committed rate immediately, so under parameter-based
  // admission the loop converges; under measurement-based admission the
  // measured ν̂ only decays with the estimator, so the cap bounds how
  // many victims a stubborn rejection may cost.
  for (int attempt = 0;
       attempt < 8 && !rec.handle.commitment.admitted &&
       spec_.preempt_on_reject &&
       fs.service == net::ServiceClass::kGuaranteed;
       ++attempt) {
    const int hop = rec.handle.commitment.rejected_hop;
    if (hop < 0 || hop >= static_cast<int>(rec.handle.links.size()) ||
        !preempt_on(rec.handle.links[static_cast<std::size_t>(hop)])) {
      break;
    }
    rec.handle = ispn_.try_open_flow(fs);
    report_.decisions.push_back(outcome(rec.handle));
  }

  if (!rec.handle.commitment.admitted) {
    ++report_.flows_rejected;
    return;
  }
  ++report_.flows_admitted;
  ++open_count_;
  rec.active = true;
  active_.push_back(fs.flow);

  if (fs.service == net::ServiceClass::kGuaranteed) {
    rec.bound = pg_bound(rec.handle);
  } else if (fs.service == net::ServiceClass::kPredicted) {
    rec.bound = rec.handle.commitment.advertised_bound.value_or(0.0);
  }

  // The sink runs on the destination's domain thread in sharded mode, so
  // it aggregates into that domain's (single-writer) slot.  Registered
  // before the source attaches so the source can stamp the sink slot
  // onto every packet (the label fast path); registration touches no
  // simulator state, so the event/RNG streams are unchanged by the order.
  const std::size_t dst_domain =
      net().sharded() ? static_cast<std::size_t>(net().domain_of(fs.dst)) : 0;
  rec.sink.emplace(&rec, &aggs_[dst_domain]);
  net::FlowSink* sink = &*rec.sink;
  if (tracer_ != nullptr) {
    sink = net().sharded() ? tracer_->wrap_sink(sink, dst_domain)
                           : tracer_->wrap_sink(sink);
  }
  const std::uint32_t sink_slot =
      net().host(fs.dst).register_sink(fs.flow, sink);
  attach_source(rec, start_offset, sink_slot);
  depart_later(fs.flow);
}

bool ScenarioRunner::preempt_on(core::LinkId link) {
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    FlowRec& cand = flows_[static_cast<std::size_t>(*it)];
    if (cand.handle.spec.service != net::ServiceClass::kPredicted) continue;
    const auto& links = cand.handle.links;
    if (std::find(links.begin(), links.end(), link) == links.end()) continue;

    cand.source->stop();
    ispn_.close_flow(cand.handle);
    cand.active = false;
    cand.closed = net().sim().now();
    --open_count_;
    ++report_.flows_preempted;
    AdmissionDecision d;
    d.time = net().sim().now();
    d.flow = cand.handle.spec.flow;
    d.service = cand.handle.spec.service;
    d.kind = AdmissionDecision::Kind::kPreempted;
    report_.decisions.push_back(d);
    active_.erase(std::next(it).base());
    return true;
  }
  return false;
}

void ScenarioRunner::attach_source(FlowRec& rec, sim::Duration start_offset,
                                   std::uint32_t sink_slot) {
  const core::FlowSpec& fs = rec.handle.spec;
  net::Host& host = net().host(fs.src);
  auto emit = [&host, sink_slot](net::PacketPtr p) {
    p->sink_slot = sink_slot;
    host.inject(std::move(p));
  };
  // The source lives on its host's clock and draws from its host's pool
  // (the domain's when sharded).  Creating the stats entry HERE (control
  // time) matters — the packet path only does find-only lookups
  // (hot_stats).
  sim::Simulator& clock = net().sim_for(fs.src);
  net::FlowStats* stats = &net().stats(fs.flow);
  const sim::Rng rng(spec_.seed,
                     kSourceStreamBase + static_cast<std::uint64_t>(fs.flow));

  // Edge policing: guaranteed flows conform to their own clock rate (so
  // the Parekh–Gallager bound applies), predicted flows to their declared
  // filter (paper §8), datagram flows are unpoliced.
  std::optional<traffic::TokenBucketSpec> police;
  if (fs.service == net::ServiceClass::kGuaranteed) {
    police = traffic::TokenBucketSpec{
        fs.guaranteed->clock_rate,
        sim::paper::kBucketPackets * spec_.packet_bits};
  } else if (fs.service == net::ServiceClass::kPredicted) {
    police = fs.predicted->bucket;
  }

  // Responsive datagram flows (cc != off) run a TCP transfer instead of an
  // open-loop generator: the source lives on the src host's clock, the
  // receiver on the dst host's, and the ACK stream is counted into the
  // source domain's ledger by a dedicated AckSink (so the reverse path
  // balances the conservation equation without polluting per-class delay
  // statistics).
  if (spec_.cc != CcKind::kOff &&
      fs.service == net::ServiceClass::kDatagram) {
    traffic::TcpSource::Config tcfg;
    tcfg.packet_bits = spec_.packet_bits;
    tcfg.max_cwnd = spec_.cc_max_cwnd;
    tcfg.binary_feedback = spec_.binary_feedback;
    switch (spec_.cc) {
      case CcKind::kReno: tcfg.cc = traffic::CcAlgo::kReno; break;
      case CcKind::kBbr: tcfg.cc = traffic::CcAlgo::kBbr; break;
      case CcKind::kRack: tcfg.cc = traffic::CcAlgo::kRack; break;
      case CcKind::kMix:
        // Deterministic per-flow-group mix: reno/bbr/rack by flow id.
        tcfg.cc = static_cast<traffic::CcAlgo>(fs.flow % 3);
        break;
      case CcKind::kOff: break;  // unreachable
    }

    auto tcp = std::make_unique<traffic::TcpSource>(
        clock, tcfg, fs.flow, fs.src, fs.dst, emit, stats);
    rec.tcp = tcp.get();
    rec.source = std::move(tcp);

    // ACK return path at the source host: ledger count, then transport.
    const std::size_t src_domain =
        net().sharded() ? static_cast<std::size_t>(net().domain_of(fs.src))
                        : 0;
    rec.ack_sink.emplace(&aggs_[src_domain], rec.tcp);
    net::FlowSink* ack = &*rec.ack_sink;
    if (tracer_ != nullptr) {
      ack = net().sharded() ? tracer_->wrap_sink(ack, src_domain)
                            : tracer_->wrap_sink(ack);
    }
    rec.ack_slot = host.register_sink(fs.flow, ack);

    // Receiver on the destination's clock; its ACKs carry the ack sink's
    // slot label and are ledgered as reverse-direction traffic.
    sim::Simulator& dst_clock = net().sim_for(fs.dst);
    net::Host& dst_host = net().host(fs.dst);
    const std::uint32_t ack_slot = rec.ack_slot;
    auto ack_emit = [&dst_host, ack_slot](net::PacketPtr p) {
      p->sink_slot = ack_slot;
      dst_host.inject(std::move(p));
    };
    rec.tcp_sink = std::make_unique<traffic::TcpSink>(
        dst_clock, tcfg, fs.flow, fs.dst, fs.src, ack_emit);
    rec.tcp_sink->set_stats(stats);
    rec.tcp_sink->set_pool(&net().pool_for(fs.dst));
    rec.sink->set_next(rec.tcp_sink.get());
  } else {
    switch (spec_.source) {
      case SourceKind::kOnOff: {
        traffic::OnOffSource::Config cfg;
        cfg.avg_rate_pps = spec_.avg_rate_pps;
        cfg.peak_factor = spec_.peak_factor;
        cfg.packet_bits = spec_.packet_bits;
        rec.source = std::make_unique<traffic::OnOffSource>(
            clock, cfg, rng, fs.flow, fs.src, fs.dst, emit, stats, police);
        break;
      }
      case SourceKind::kCbr: {
        traffic::CbrSource::Config cfg;
        cfg.rate_pps = spec_.avg_rate_pps;
        cfg.packet_bits = spec_.packet_bits;
        rec.source = std::make_unique<traffic::CbrSource>(
            clock, cfg, fs.flow, fs.src, fs.dst, emit, stats, police);
        break;
      }
      case SourceKind::kPoisson: {
        traffic::PoissonSource::Config cfg;
        cfg.rate_pps = spec_.avg_rate_pps;
        cfg.packet_bits = spec_.packet_bits;
        rec.source = std::make_unique<traffic::PoissonSource>(
            clock, cfg, rng, fs.flow, fs.src, fs.dst, emit, stats, police);
        break;
      }
    }
  }

  rec.source->set_service(fs.service, first_hop_priority(rec.handle));
  rec.source->set_pool(&net().pool_for(fs.src));
  // Control time is a window barrier, so `now + offset` is never in a
  // window a domain has already executed.
  rec.source->start(net().sim().now() + start_offset);
}

void ScenarioRunner::depart_later(net::FlowId flow) {
  if (spec_.mean_hold <= 0) return;
  // The hold is drawn at open time so the workload stream's call order
  // never depends on event interleaving.
  const sim::Time t =
      net().sim().now() + rng_.exponential(spec_.mean_hold);
  if (t >= spec_.run_seconds) return;  // the global stop covers it
  net().sim().at(ctl(t), [this, flow] {
    FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
    if (!rec.active) return;  // preempted in the meantime
    rec.source->stop();
    net().sim().at(ctl(net().sim().now() + spec_.drain_grace),
                   [this, flow] { try_close(flow); });
  });
}

void ScenarioRunner::try_close(net::FlowId flow) {
  FlowRec& rec = flows_[static_cast<std::size_t>(flow)];
  if (!rec.active) return;
  if (rec.handle.spec.service == net::ServiceClass::kGuaranteed) {
    // Drained means every injected packet has been accounted for end to
    // end — delivered or dropped.  Polling the per-hop queues instead
    // would race the last packet's in-flight window (dequeued at one hop,
    // not yet enqueued at the next), and closing inside that window would
    // demote the packet to datagram service downstream.
    const net::FlowStats& st = net().stats(flow);
    if (st.injected > rec.delivered + st.net_drops + st.failed_link_drops +
                          st.node_failure_drops + st.fault_drops) {
      // Still draining: WFQ guarantees the clock rate, so this
      // terminates; poll again one grace period later.
      net().sim().at(ctl(net().sim().now() + spec_.drain_grace),
                     [this, flow] { try_close(flow); });
      return;
    }
  }
  ispn_.close_flow(rec.handle);
  rec.active = false;
  rec.closed = net().sim().now();
  --open_count_;
  active_.erase(std::find(active_.begin(), active_.end(), flow));
}

void ScenarioRunner::stop_all() {
  halted_ = true;  // no further arrivals may open flows
  for (const net::FlowId flow : active_) {
    flows_[static_cast<std::size_t>(flow)].source->stop();
  }
}

std::uint64_t ScenarioRunner::queued_now() {
  std::uint64_t queued = 0;
  for (const core::LinkId& link : ispn_.links()) {
    net::Port* port = net().port(link.first, link.second);
    queued += port->scheduler().packets() + (port->busy() ? 1 : 0);
  }
  return queued;
}

void ScenarioRunner::advance(sim::Time horizon) {
  assert(prepared_ && "advance() before prepare()");
  if (engine_) {
    engine_->run_until(horizon);
  } else {
    net().sim().run_until(horizon);
  }
}

std::uint64_t ScenarioRunner::events_processed() {
  return engine_ ? engine_->processed() : net().sim().processed();
}

std::array<ClassStats, 3> ScenarioRunner::merged_classes() const {
  if (aggs_.size() == 1) return aggs_.front().classes;
  // Merge in domain order: counts, Welford moments and extrema combine
  // exactly; P² has no exact merge, so the merged quantile is the
  // delivered-weighted average of the per-domain estimates, fed as a
  // single observation ("exact until five samples" makes value() return
  // it verbatim).  Domain order is a function of the topology, so the
  // merged table is identical for every shard count.
  std::array<ClassStats, 3> merged{};
  for (std::size_t c = 0; c < merged.size(); ++c) {
    ClassStats& m = merged[c];
    double w50 = 0, w99 = 0, w999 = 0;
    for (const DomainAgg& agg : aggs_) {
      const ClassStats& s = agg.classes[c];
      if (s.delivered == 0) continue;
      m.delivered += s.delivered;
      m.delay.merge(s.delay);
      m.jitter.merge(s.jitter);
      const auto w = static_cast<double>(s.delivered);
      w50 += w * s.p50.value();
      w99 += w * s.p99.value();
      w999 += w * s.p999.value();
    }
    if (m.delivered > 0) {
      const auto n = static_cast<double>(m.delivered);
      m.p50.add(w50 / n);
      m.p99.add(w99 / n);
      m.p999.add(w999 / n);
    }
  }
  return merged;
}

ScenarioReport ScenarioRunner::run() {
  prepare();
  if (engine_) {
    engine_->run();
  } else {
    net().sim().run();
  }
  return finish();
}

ScenarioReport ScenarioRunner::finish() {
  assert(prepared_ && "finish() before prepare()");
  assert(!finished_ && "finish() called twice");
  finished_ = true;
  const bool idle = engine_ ? engine_->idle() : net().sim().idle();
  if (!idle) {
    // Manual driving stopped mid-run (always at a barrier when sharded):
    // end the workload and drain.
    stop_all();
    if (engine_) {
      engine_->run();
    } else {
      net().sim().run();
    }
  }

  report_.spec_summary = spec_.describe();
  report_.end_time = net().sim().now();
  report_.events = events_processed();

  // Final invariant audit against the fully drained end state (queues and
  // mailboxes empty, every bucket settled).
  if (monitor_) {
    if (audit_now() > 0) {
      std::fputs("scenario: invariant violations detected:\n", stderr);
    }
    if (!monitor_->violations().empty()) {
      std::fputs(monitor_->report().c_str(), stderr);
    }
    report_.invariant_audits = monitor_->audits();
    report_.invariant_violations = monitor_->violations().size();
  }

  add_flow_buckets(report_);
  for (const FlowRec& rec : flows_) {
    FlowOutcome out;
    out.flow = rec.handle.spec.flow;
    out.service = rec.handle.spec.service;
    out.admitted = rec.handle.commitment.admitted;
    out.hops = rec.handle.links.size();
    out.opened = rec.opened;
    out.closed = rec.closed;
    out.delivered = rec.delivered;
    out.max_delay = rec.max_delay;
    out.bound = rec.bound;
    out.reroutes = rec.reroutes;
    out.degraded = rec.degraded;
    out.path_epochs = rec.epochs_seen;
    out.max_delay_all = rec.max_delay_all;
    report_.flows.push_back(out);

    if (rec.tcp != nullptr) {
      ++report_.cc_flows;
      report_.tcp_segments += rec.tcp->sent_segments();
      report_.tcp_delivered += rec.tcp->delivered();
      report_.tcp_retransmits += rec.tcp->retransmits();
      report_.tcp_timeouts += rec.tcp->timeouts();
      report_.tcp_reorder_timeouts += rec.tcp->reorder_timeouts();
      report_.cc_echoes += rec.tcp->echoes_received();
      report_.cc_backoffs += rec.tcp->fb_backoffs();
    }
  }
  report_.flows_offered = flows_.size();
  report_.delivered = delivered();
  report_.queued_end = queued_now();

  // Stranded packets and the flow-locality cache totals, across every
  // node in the fabric (the adjacency holds every connected node; hosts
  // carry sink caches, switches route caches).
  for (const auto& [id, neighbors] : net().adjacency()) {
    (void)neighbors;
    if (net().is_host(id)) {
      const net::Host& host = net().host(id);
      report_.unclaimed += host.unclaimed();
      report_.sink_cache_hits += host.sink_cache_hits();
      report_.sink_cache_misses += host.sink_cache_misses();
      report_.sink_label_hits += host.sink_label_hits();
    } else {
      report_.route_cache_hits += net().switch_node(id).route_cache_hits();
      report_.route_cache_misses +=
          net().switch_node(id).route_cache_misses();
    }
  }

  report_.classes = merged_classes();
  for (const core::LinkId& link : ispn_.links()) {
    report_.cc_marks += ispn_.scheduler(link).cong_marks();
    report_.cc_mark_samples += ispn_.scheduler(link).mark_samples();
    LinkReport lr;
    lr.link = link;
    lr.utilization = report_.end_time > 0
                         ? ispn_.link_utilization(link, report_.end_time)
                         : 0.0;
    lr.realtime_utilization =
        ispn_.realtime_utilization(link, report_.end_time);
    report_.links.push_back(lr);
  }
  return std::move(report_);
}

}  // namespace ispn::scenario
