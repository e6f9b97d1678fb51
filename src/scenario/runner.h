// ScenarioRunner: executes one ScenarioSpec end to end.
//
// The runner owns an IspnNetwork, builds the spec's fabric, and drives a
// LIVE workload: flows arrive over simulated time (Poisson arrivals, or
// one deterministic batch at t=0 for bench/soak specs), each presents a
// FlowSpec to the admission controller — whose ν̂ / d̂_j inputs come from
// the per-link measurement modules fed by the very traffic already
// admitted — and is admitted, rejected, or (optionally) makes room by
// preempting the youngest predicted flow on the refusing link.  Admitted
// flows get a source and a counting sink, hold for an exponential time,
// then stop and close (guaranteed flows wait for their WFQ queues to
// drain before releasing their clock rate).
//
// Every decision lands in the ScenarioReport's admission log and every
// delivery in O(1) per-class aggregates, so the golden-trace suite can
// hash a full run and the million-packet soak stays allocation-free in
// steady state.
//
// Driving modes:
//   * run()            — the whole scenario: prepare + drain + report.
//   * prepare() + advance(...) + finish() — incremental (bench_ispn
//     slices wall-clock time this way; advance() is engine-aware).
//
// Sharded execution (spec.shards >= 1): the runner builds the network in
// per-switch domains (net/network.h) and drives them with a ShardedEngine
// (sim/shard.h).  Two disciplines keep it deterministic:
//   * every CONTROL event the runner schedules — arrivals, departures,
//     drain retries, failures, the global stop — is quantized onto the
//     window grid with ctl(), so admission and teardown always execute at
//     barriers, never while domain threads run;
//   * per-delivery aggregation is per-DOMAIN (DomainAgg), merged once in
//     finish(), so no counter is shared across threads and the merged
//     report is a function of the domain decomposition (the topology),
//     not of the worker count.

#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "net/tracer.h"
#include "scenario/fabric.h"
#include "scenario/invariants.h"
#include "scenario/report.h"
#include "scenario/scenario.h"
#include "sim/shard.h"
#include "traffic/source.h"
#include "traffic/tcp.h"

namespace ispn::scenario {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  /// Builds the fabric and schedules the workload.  Idempotent.
  void prepare();

  /// prepare(), run the simulation to completion (arrivals end, sources
  /// stop at run_seconds, queues drain), then finish().
  ScenarioReport run();

  /// Stops every active source, drains the simulator, and assembles the
  /// report (callable once, after manual driving or inside run()).
  ScenarioReport finish();

  /// Optional: route every delivery through `tracer` (wrap_sink) so the
  /// golden-trace suite sees deliver records too.  Set before prepare().
  void set_tracer(net::PacketTracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] core::IspnNetwork& ispn() { return ispn_; }
  [[nodiscard]] net::Network& net() { return ispn_.net(); }
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// The built fabric (valid after prepare()).
  [[nodiscard]] const Fabric& fabric() const { return fabric_; }

  /// Advances simulated time to `horizon`, dispatching to the sharded
  /// engine when one is active (benches slice runs this way).  Call only
  /// after prepare(); always leaves the run at a barrier.
  void advance(sim::Time horizon);

  /// Events processed so far (control + every domain when sharded).
  [[nodiscard]] std::uint64_t events_processed();

  /// The sharded engine, or nullptr on the classic single-clock path.
  [[nodiscard]] sim::ShardedEngine* engine() { return engine_.get(); }

  /// Packets delivered so far across all flows (bench progress counter).
  /// Summed over the per-domain aggregates; call at barriers only.
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const DomainAgg& a : aggs_) n += a.delivered;
    return n;
  }

  /// Admission decisions so far (grows during the run; finish() hands
  /// them over with the report).
  [[nodiscard]] const std::vector<AdmissionDecision>& decisions() const {
    return report_.decisions;
  }

  /// The invariant monitor, or nullptr when invariant_cadence is 0.
  [[nodiscard]] InvariantMonitor* monitor() { return monitor_.get(); }

  /// Runs one invariant audit against the live engine state right now
  /// (the cadence timer calls this; tests call it directly — e.g. the
  /// monitor self-test, which corrupts a ledger counter and asserts the
  /// sweep catches it).  Returns the number of new violations; 0 when no
  /// monitor is configured.  Call between events / at barriers only.
  std::size_t audit_now();

 private:
  struct FlowRec;

  /// Per-class delivery aggregates for one domain (one instance total on
  /// the classic path).  Each domain's sinks write only their own entry —
  /// single-writer, no sharing — and finish() merges across domains in
  /// index order, so the merged result is shard-count invariant.
  struct DomainAgg {
    std::array<ClassStats, 3> classes{};
    std::uint64_t delivered = 0;
  };

  /// Per-flow counting sink: O(1) per packet, feeds the owning domain's
  /// aggregates and the flow's own tallies.  Runs on the destination
  /// host's domain thread in sharded mode.
  class Sink final : public net::FlowSink {
   public:
    Sink(FlowRec* rec, DomainAgg* agg) : rec_(rec), agg_(agg) {}
    void on_packet(net::PacketPtr p, sim::Time now) override;
    /// Chains a downstream consumer (the responsive flows' TcpSink, which
    /// turns the delivered data into an ACK stream).  Counting first, then
    /// forward — the transport sees the packet after the ledger does.
    void set_next(net::FlowSink* next) { next_ = next; }

   private:
    FlowRec* rec_;
    DomainAgg* agg_;
    net::FlowSink* next_ = nullptr;
  };

  /// ACK-path counting sink at the SOURCE host: ledger-only (the reverse
  /// stream must balance the conservation equation) — ACK deliveries never
  /// touch the per-class delay statistics.  Runs on the source host's
  /// domain thread in sharded mode, so it aggregates into that domain's
  /// single-writer slot.
  class AckSink final : public net::FlowSink {
   public:
    AckSink(DomainAgg* agg, net::FlowSink* next) : agg_(agg), next_(next) {}
    void on_packet(net::PacketPtr p, sim::Time now) override {
      ++agg_->delivered;
      if (next_ != nullptr) next_->on_packet(std::move(p), now);
    }
    /// Detaches the transport once its source is retired: later ACKs are
    /// counted and dropped unread, as the stopped source dropped them.
    /// Called at a barrier (the sink runs on the source host's domain
    /// thread).
    void detach() { next_ = nullptr; }

   private:
    DomainAgg* agg_;
    net::FlowSink* next_;
  };

  struct FlowRec {
    core::IspnNetwork::FlowHandle handle;
    /// Null once the flow closed and retire_idle() freed it.
    std::unique_ptr<traffic::Source> source;
    // The sink is embedded (not heap-allocated) and kept adjacent to the
    // per-delivery tallies it updates: warming the sink object — the
    // ports' delivery prefetch does exactly that one transmission ahead —
    // then also warms this record, so at million-flow scale a delivery
    // costs one cold cache line instead of two.  FlowRec addresses are
    // stable (flows_ is a deque, records are emplaced and never moved),
    // so the self-referential sink is safe.
    std::optional<Sink> sink;
    // Responsive (cc != off) datagram flows: the transport pair.  `tcp`
    // aliases `source` (owned there; both null once retired); the TcpSink
    // lives on the destination host's domain clock and feeds ACKs back
    // through `ack_sink`.
    traffic::TcpSource* tcp = nullptr;
    std::unique_ptr<traffic::TcpSink> tcp_sink;
    std::optional<AckSink> ack_sink;
    std::uint32_t ack_slot = 0;  ///< ACK sink's slot at the source host
    std::uint64_t delivered = 0;
    double max_delay = 0;
    double last_delay = 0;  ///< previous delivery's delay (jitter deltas)
    double max_delay_all = 0;
    bool has_last = false;
    // Path-epoch segmentation: bumped on every reroute/degrade; the
    // source stamps it onto packets, so in-flight stragglers from the old
    // path never score against the new path's bound (max_delay resets per
    // epoch; max_delay_all spans the lifetime).
    std::uint16_t epoch = 0;
    std::uint16_t epochs_seen = 1;
    sim::Time opened = 0;
    sim::Time closed = -1;
    double bound = 0;
    bool active = false;  ///< admitted and not yet closed
    int reroutes = 0;     ///< successful re-admissions after path failures
    bool degraded = false;  ///< refused re-admission; carried as datagram
    // Graceful-degradation restore state: the ORIGINAL FlowSpec is saved
    // the first time the flow degrades (reroute_flow rewrites the live
    // spec to datagram), so re-admission retries offer what the client
    // asked for.  Backoff/attempts reset on every successful restore.
    std::unique_ptr<core::FlowSpec> saved_spec;
    int restore_attempts = 0;
    sim::Duration restore_backoff = 0;
  };

  void schedule_next_arrival();
  void on_arrival();
  [[nodiscard]] core::FlowSpec draw_spec();
  /// Opens one flow (admission + source + sink + departure schedule).
  /// `start_offset` staggers the source's first emission.
  void open_flow(const core::FlowSpec& fs, sim::Duration start_offset);
  /// Tears down the youngest active predicted flow crossing `link`;
  /// returns true when a victim was found.
  bool preempt_on(core::LinkId link);
  /// `sink_slot` is the flow's registered slot at the destination host;
  /// the source stamps it onto every packet as the delivery label.
  void attach_source(FlowRec& rec, sim::Duration start_offset,
                     std::uint32_t sink_slot);
  /// Assembles the failure schedule (explicit specs + the seeded
  /// generator) and registers every event with the simulator.  Called
  /// once from prepare(); the whole schedule is drawn up front so the
  /// failure Rng stream never interleaves with workload decisions.
  void schedule_failures();
  /// Applies one link up/down event, then re-validates affected flows:
  /// link-down sweeps only the flows registered across the link (the
  /// per-link index — removing an edge cannot shorten anyone else's
  /// shortest path), link-up sweeps everything (a recovered link can
  /// shorten paths for flows that never crossed it).
  void on_link_event(net::NodeId a, net::NodeId b, bool up);
  /// Re-offers each candidate admitted real-time flow whose current
  /// shortest path no longer matches its scheduler registrations (paper
  /// §9 criteria against the live measurements).
  void revalidate_flows(const std::vector<net::FlowId>& candidates);
  /// Re-offers ONE admitted real-time flow on the current shortest path
  /// and applies the outcome (counters, decision log, source rewiring,
  /// restore scheduling).  A flow re-admitted on an UNCHANGED path — the
  /// brown-out shed pass re-validating a survivor — is kept silently: no
  /// decision, no epoch bump.
  void reoffer_flow(net::FlowId flow);
  /// Applies one switch crash/recovery: all incident links transition
  /// atomically (queued packets flushed into node_failure_drops), routes
  /// recompute once, and crossing (down) or all (up) flows re-validate.
  void on_node_event(net::NodeId node, bool up);
  /// Applies one capacity brown-out transition on the a<->b link pair.
  /// Ordering discipline: admission + measurement re-rate FIRST, then the
  /// over-committed flows are shed (predicted before guaranteed, youngest
  /// first), and only then the schedulers and ports re-rate — so the
  /// schedulers' flow0 weight (mu - guaranteed) stays positive throughout.
  void on_brownout(net::NodeId a, net::NodeId b, bool start, double fraction);
  /// Starts/ends one transient per-link loss episode (Bernoulli drops on
  /// the dedicated per-port stream; drops land in fault_drops).
  void on_loss(net::NodeId a, net::NodeId b, bool start, double prob);
  /// Degrades/preempts youngest-first victims crossing `link` until the
  /// committed load fits under the link's (possibly browned-out) rate.
  void shed_overcommit(core::LinkId link);
  /// Schedules the next re-admission retry of a degraded flow (capped
  /// exponential backoff; no-op when readmit_backoff is 0).
  void schedule_restore(net::FlowId flow);
  /// One re-admission attempt: offer the saved original FlowSpec; on
  /// success the flow returns to its original service (kRestored), on
  /// refusal the backoff grows and the retry reschedules.
  void try_restore(net::FlowId flow);
  /// Self-rescheduling invariant audit (invariant_cadence > 0).
  void schedule_audit();
  /// Adds every flow's seven source/network ledger buckets (generated
  /// through fault_drops) into `out`, an InvariantMonitor::Ledger or the
  /// report: both name the buckets alike.
  template <class Ledger>
  void add_flow_buckets(Ledger& out);
  /// Parekh–Gallager bound of an admitted guaranteed flow, for the token
  /// bucket its source is policed to.
  [[nodiscard]] double pg_bound(
      const core::IspnNetwork::FlowHandle& handle) const;
  /// Advances a flow's path epoch after a reroute/degrade (satellite of
  /// the sharded-core PR: per-path-epoch delay segmentation).
  void bump_epoch(FlowRec& rec);
  void depart_later(net::FlowId flow);
  void try_close(net::FlowId flow);
  /// Marks a flow closed at `now` and queues its source for retirement.
  void close_rec(net::FlowId flow);
  /// Frees the source of every closed flow on retiring_ that is idle: its
  /// start event has fired and no timer of it is pending, so no event can
  /// reach it.  A TcpSource's counters go to the report first and its
  /// ACK sink is detached.  The flow's record, sinks and stats
  /// stay, so stragglers still count; no event is added or removed.
  void retire_idle();
  /// Adds one TcpSource's counters (and the flow) to the report's
  /// responsive section.
  void count_tcp(const traffic::TcpSource& tcp);
  void stop_all();
  [[nodiscard]] std::uint64_t queued_now();
  /// Quantizes a control-event time onto the window grid (identity on the
  /// classic path): the smallest multiple of link_latency at or after t.
  [[nodiscard]] sim::Time ctl(sim::Time t) const;
  /// Merges the per-domain aggregates into one per-class table.
  [[nodiscard]] std::array<ClassStats, 3> merged_classes() const;

  ScenarioSpec spec_;
  core::IspnNetwork ispn_;
  Fabric fabric_;
  net::PacketTracer* tracer_ = nullptr;
  sim::Rng rng_;
  std::unique_ptr<sim::ShardedEngine> engine_;

  bool prepared_ = false;
  bool finished_ = false;
  bool halted_ = false;  ///< workload ended: arrivals become no-ops
  sim::Duration arrival_deadline_ = 0;
  net::FlowId next_flow_ = 0;
  int open_count_ = 0;
  std::deque<FlowRec> flows_;          ///< indexed by FlowId; stable refs
  std::vector<net::FlowId> active_;    ///< open order (preemption scans back)
  /// Closed flows whose source still has a pending event (retire_idle()).
  std::vector<net::FlowId> retiring_;
  /// One per domain (one total on the classic path); sized once in
  /// prepare() — deque, so Sink pointers into it stay stable.
  std::deque<DomainAgg> aggs_;
  /// Control events count straight into the report (admission decisions,
  /// failure and fault counters); finish() fills in the rest and hands
  /// it over.
  ScenarioReport report_;
  std::unique_ptr<InvariantMonitor> monitor_;
};

}  // namespace ispn::scenario
