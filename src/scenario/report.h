// ScenarioReport: everything one scenario run produces.
//
// Aggregation is O(1) per delivered packet (Welford means, a fixed
// log-bucket delay histogram per class, windowless counters) so
// million-packet runs stay inside the engine's zero-steady-state-allocation
// discipline — only the per-flow outcome table and the admission decision
// log grow, and those grow with FLOWS, not packets.  Reported class
// quantiles are within 1/32 of the exact order statistics of the
// delivered packets, and merge exactly across shard domains.

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/builder.h"
#include "net/packet.h"
#include "stats/online_stats.h"
#include "stats/log_histogram.h"

namespace ispn::scenario {

/// One admission-control event, as seen by the runner.
struct AdmissionDecision {
  enum class Kind : std::uint8_t {
    kAdmitted,
    kRejected,
    kPreempted,  ///< torn down to make room for a rejected guaranteed flow
    kRerouted,   ///< path failed; re-admitted on the new shortest path
    kDegraded,   ///< path failed; refused re-admission, now datagram
    kOrphaned,   ///< path failed; destination unreachable, torn down
    kRestored,   ///< degraded flow re-admitted at its original service
  };
  sim::Time time = 0;
  net::FlowId flow = net::kNoFlow;
  net::ServiceClass service = net::ServiceClass::kDatagram;
  Kind kind = Kind::kAdmitted;
  int rejected_hop = -1;     ///< path index that refused (kRejected only)
  std::string reason;        ///< controller's explanation (kRejected only)
};

[[nodiscard]] const char* to_string(AdmissionDecision::Kind kind);

/// Per-service-class delivery statistics, O(1) per packet.
struct ClassStats {
  std::uint64_t delivered = 0;
  stats::OnlineStats delay;                 ///< e2e queueing delay (s)
  stats::LogHistogram delay_hist;           ///< same samples, for quantiles
  /// |successive delay delta| computed WITHIN each flow (the per-flow
  /// previous delay lives with the flow), then aggregated per class —
  /// interleaved flows with different path lengths must not masquerade
  /// as jitter.
  stats::OnlineStats jitter;

  void add_delay(double delay_s) {
    ++delivered;
    delay.add(delay_s);
    delay_hist.add(delay_s);
  }

  /// Nearest-rank q-quantile of the queueing delay (s), within 1/32 of
  /// the exact order statistic and never beyond the observed maximum.
  [[nodiscard]] double quantile(double q) const {
    return delay_hist.quantile(q);
  }
};

/// One flow's fate.
struct FlowOutcome {
  net::FlowId flow = net::kNoFlow;
  net::ServiceClass service = net::ServiceClass::kDatagram;
  bool admitted = false;
  std::size_t hops = 0;          ///< queueing links on the path
  sim::Time opened = 0;
  sim::Time closed = -1;         ///< < 0: still open at run end
  std::uint64_t delivered = 0;
  double max_delay = 0;          ///< max accumulated queueing delay (s)
  /// Advertised bound (s): Parekh–Gallager for guaranteed, summed class
  /// targets for predicted; 0 = none (datagram / rejected).  Recomputed
  /// when a reroute changes the path length.
  double bound = 0;
  int reroutes = 0;      ///< successful re-admissions after path failures
  bool degraded = false; ///< ended as datagram after a refused re-offer
  // ---- path-epoch segmentation ----------------------------------------
  // Every reroute/degrade bumps the source's path epoch; packets carry the
  // epoch they were generated under.  max_delay above covers only the
  // FINAL epoch (so a rerouted flow's bound is compared against packets
  // that actually travelled the rerouted path), while max_delay_all spans
  // the flow's whole lifetime.  For never-rerouted flows the two agree.
  std::uint16_t path_epochs = 1;  ///< distinct epochs observed (>= 1)
  double max_delay_all = 0;       ///< max queueing delay across ALL epochs
};

/// Per-link utilisation row.
struct LinkReport {
  core::LinkId link{net::kNoNode, net::kNoNode};
  double utilization = 0;           ///< all traffic, over [0, end]
  double realtime_utilization = 0;  ///< guaranteed + predicted only
};

struct ScenarioReport {
  std::string spec_summary;
  sim::Time end_time = 0;
  std::uint64_t events = 0;  ///< simulator events processed

  // ---- packet conservation ledger -------------------------------------
  // generated == source_drops + injected           (edge policing)
  // injected  == delivered + net_drops + failed_link_drops
  //              + node_failure_drops + fault_drops + queued_end + unclaimed
  std::uint64_t generated = 0;
  std::uint64_t source_drops = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t net_drops = 0;
  /// Lost to topology churn (on a failing link, expelled by a reroute, or
  /// stranded by a partition) — never silently dropped from the ledger.
  std::uint64_t failed_link_drops = 0;
  /// Crash casualties: packets flushed when a switch went down (every
  /// incident port's queue at once).
  std::uint64_t node_failure_drops = 0;
  /// Injected transient loss: the packet consumed the wire but was
  /// destroyed before delivery (fault-plane loss episodes).
  std::uint64_t fault_drops = 0;
  std::uint64_t queued_end = 0;
  std::uint64_t unclaimed = 0;

  // ---- admission -------------------------------------------------------
  std::uint64_t flows_offered = 0;
  std::uint64_t flows_admitted = 0;   ///< includes always-admitted datagram
  std::uint64_t flows_rejected = 0;
  std::uint64_t flows_preempted = 0;
  std::vector<AdmissionDecision> decisions;

  // ---- failures / rerouting -------------------------------------------
  std::uint64_t links_failed = 0;     ///< link-down events applied
  std::uint64_t links_repaired = 0;   ///< link-up events applied
  std::uint64_t flows_rerouted = 0;   ///< re-admitted on a new path
  std::uint64_t flows_degraded = 0;   ///< refused; carried on as datagram
  std::uint64_t flows_orphaned = 0;   ///< unreachable; torn down

  // ---- fault plane -----------------------------------------------------
  std::uint64_t nodes_crashed = 0;    ///< switch-crash events applied
  std::uint64_t nodes_recovered = 0;  ///< switch-recovery events applied
  std::uint64_t brownouts = 0;        ///< brown-out episodes started
  std::uint64_t loss_episodes = 0;    ///< loss episodes started
  std::uint64_t flows_restored = 0;   ///< degraded flows re-admitted
  std::uint64_t restore_attempts = 0; ///< re-admission offers (incl. failed)
  std::uint64_t invariant_audits = 0;     ///< monitor sweeps completed
  std::uint64_t invariant_violations = 0; ///< violations the monitor found

  // ---- responsive traffic (DEC-TR-506 binary feedback) ----------------
  // Populated when the spec runs responsive datagram flows (cc != off)
  // and/or binary-feedback marking (binary_feedback = 1).
  std::uint64_t cc_flows = 0;        ///< datagram flows run as TCP transfers
  std::uint64_t cc_marks = 0;        ///< congestion marks set by schedulers
  std::uint64_t cc_mark_samples = 0; ///< datagram avg-queue sampling instants
  std::uint64_t cc_echoes = 0;       ///< echoed marks received at sources
  std::uint64_t cc_backoffs = 0;     ///< feedback-window decreases applied
  std::uint64_t tcp_segments = 0;    ///< data segments transmitted
  std::uint64_t tcp_delivered = 0;   ///< segments cumulatively acknowledged
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_timeouts = 0;         ///< RTO expirations
  std::uint64_t tcp_reorder_timeouts = 0; ///< rack reorder-timer losses

  // ---- flow-locality caches -------------------------------------------
  // Direct-mapped lookup caches (DEC-TR-592) on the per-packet hot paths,
  // summed across all nodes: switch dst -> port and host flow -> sink.
  // Deterministic (probe sequence == packet sequence), so the determinism
  // suites compare them across shard counts and sliced runs.
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;
  std::uint64_t sink_cache_hits = 0;
  std::uint64_t sink_cache_misses = 0;
  /// Deliveries that skipped the lookup entirely: the packet carried a
  /// validated sink-slot label stamped at flow setup (runner sources).
  std::uint64_t sink_label_hits = 0;

  // ---- delivery quality ------------------------------------------------
  std::array<ClassStats, 3> classes;  ///< indexed by ServiceClass
  std::vector<FlowOutcome> flows;
  std::vector<LinkReport> links;

  [[nodiscard]] bool conserved() const {
    return generated == source_drops + injected &&
           injected == delivered + net_drops + failed_link_drops +
                           node_failure_drops + fault_drops + queued_end +
                           unclaimed;
  }
  [[nodiscard]] double admission_ratio() const {
    return flows_offered == 0 ? 1.0
                              : static_cast<double>(flows_admitted) /
                                    static_cast<double>(flows_offered);
  }

  /// FNV-1a over the full decision log (times bit-exact), for the
  /// golden-trace determinism suite.
  [[nodiscard]] std::uint64_t decision_hash() const;

  /// Human-readable summary: one line per counter section, then the
  /// per-class delay and link tables.
  void to_text(std::ostream& out) const;
  /// Machine-readable JSON (one object): one object per counter section,
  /// keyed by field name, doubles at full precision.  The decision log is
  /// summarised as decision_hash rather than emitted per entry.
  void to_json(std::ostream& out) const;
};

/// One counter of the report: the section it renders under, its name (the
/// text label and JSON key, spelled as the field) and the field itself.
struct ReportCounter {
  std::string_view section;
  std::string_view name;
  std::uint64_t ScenarioReport::*field;
};

/// Every counter of ScenarioReport, grouped by section in rendering order.
/// The text and JSON reports and the determinism suites' compare set all
/// walk this table, so a new counter is declared here and nowhere else.
inline constexpr ReportCounter kReportCounters[] = {
    {"run", "events", &ScenarioReport::events},
    {"conservation", "generated", &ScenarioReport::generated},
    {"conservation", "source_drops", &ScenarioReport::source_drops},
    {"conservation", "injected", &ScenarioReport::injected},
    {"conservation", "delivered", &ScenarioReport::delivered},
    {"conservation", "net_drops", &ScenarioReport::net_drops},
    {"conservation", "failed_link_drops", &ScenarioReport::failed_link_drops},
    {"conservation", "node_failure_drops",
     &ScenarioReport::node_failure_drops},
    {"conservation", "fault_drops", &ScenarioReport::fault_drops},
    {"conservation", "queued_end", &ScenarioReport::queued_end},
    {"conservation", "unclaimed", &ScenarioReport::unclaimed},
    {"admission", "flows_offered", &ScenarioReport::flows_offered},
    {"admission", "flows_admitted", &ScenarioReport::flows_admitted},
    {"admission", "flows_rejected", &ScenarioReport::flows_rejected},
    {"admission", "flows_preempted", &ScenarioReport::flows_preempted},
    {"failures", "links_failed", &ScenarioReport::links_failed},
    {"failures", "links_repaired", &ScenarioReport::links_repaired},
    {"failures", "flows_rerouted", &ScenarioReport::flows_rerouted},
    {"failures", "flows_degraded", &ScenarioReport::flows_degraded},
    {"failures", "flows_orphaned", &ScenarioReport::flows_orphaned},
    {"faults", "nodes_crashed", &ScenarioReport::nodes_crashed},
    {"faults", "nodes_recovered", &ScenarioReport::nodes_recovered},
    {"faults", "brownouts", &ScenarioReport::brownouts},
    {"faults", "loss_episodes", &ScenarioReport::loss_episodes},
    {"faults", "flows_restored", &ScenarioReport::flows_restored},
    {"faults", "restore_attempts", &ScenarioReport::restore_attempts},
    {"faults", "invariant_audits", &ScenarioReport::invariant_audits},
    {"faults", "invariant_violations", &ScenarioReport::invariant_violations},
    {"responsive", "cc_flows", &ScenarioReport::cc_flows},
    {"responsive", "cc_marks", &ScenarioReport::cc_marks},
    {"responsive", "cc_mark_samples", &ScenarioReport::cc_mark_samples},
    {"responsive", "cc_echoes", &ScenarioReport::cc_echoes},
    {"responsive", "cc_backoffs", &ScenarioReport::cc_backoffs},
    {"responsive", "tcp_segments", &ScenarioReport::tcp_segments},
    {"responsive", "tcp_delivered", &ScenarioReport::tcp_delivered},
    {"responsive", "tcp_retransmits", &ScenarioReport::tcp_retransmits},
    {"responsive", "tcp_timeouts", &ScenarioReport::tcp_timeouts},
    {"responsive", "tcp_reorder_timeouts",
     &ScenarioReport::tcp_reorder_timeouts},
    {"caches", "route_cache_hits", &ScenarioReport::route_cache_hits},
    {"caches", "route_cache_misses", &ScenarioReport::route_cache_misses},
    {"caches", "sink_cache_hits", &ScenarioReport::sink_cache_hits},
    {"caches", "sink_cache_misses", &ScenarioReport::sink_cache_misses},
    {"caches", "sink_label_hits", &ScenarioReport::sink_label_hits},
};

}  // namespace ispn::scenario
