// Parameterized scenario fabrics (ROADMAP "scale scenarios").
//
// A ScenarioSpec describes one complete experiment beyond the paper's
// fixed Figure-1 runs: a fabric (scaled-up chain, fan-in/fan-out
// aggregation tree, or multi-bottleneck parking lot with per-hop
// entry/exit traffic), an engine configuration (shards, hierarchical
// scheduling, buffer sizes, link rates), an admission-control configuration
// (measurement-based by default — the paper's design), and a workload of
// flows that ARRIVE OVER SIMULATED TIME with FlowSpecs, get admitted or
// refused by the live measurement feed, hold for a while and depart.
//
// Specs come from three places: C++ presets (preset()), the JSON-ish
// config files of tools/scenario_run (spec_from_json), and tests/benches
// constructing them directly.  ScenarioRunner (runner.h) executes a spec;
// ScenarioReport (report.h) is the result.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/builder.h"
#include "fault/fault.h"
#include "sim/units.h"

namespace ispn::scenario {

/// Which fabric the generator builds.
enum class FabricKind {
  kChain,      ///< scaled-up Figure-1 chain (chain_switches long)
  kFanInTree,  ///< width-ary aggregation tree, tree_depth levels
  kParkingLot, ///< parking_hops bottlenecks, entry/exit host per hop
  kMesh,       ///< mesh_rows x mesh_cols grid (alternate paths everywhere)
  kRing,       ///< ring_switches cycle (exactly two disjoint paths)
  kClos,       ///< clos_spines x clos_leaves folded Clos
};

/// Which generation process drives each flow.
enum class SourceKind {
  kOnOff,    ///< the paper's two-state Markov source
  kCbr,      ///< deterministic constant bit rate
  kPoisson,  ///< exponential gaps
};

/// Which congestion-control stack drives the datagram (best-effort) flows.
/// kOff keeps the classic open-loop sources; everything else replaces the
/// datagram flows' generators with responsive TCP transfers (traffic/tcp.h)
/// running the named stack.  kMix assigns reno/bbr/rack round-robin by
/// flow id — the CC-mix differential workload.
enum class CcKind {
  kOff,
  kReno,
  kBbr,
  kRack,
  kMix,
};

/// One explicit link failure: the switch-to-switch link src<->dst goes
/// down at down_at and (when up_at >= 0) recovers at up_at.
struct LinkFailureSpec {
  net::NodeId src = -1;
  net::NodeId dst = -1;
  sim::Duration down_at = 0;
  sim::Duration up_at = -1;  ///< < 0: stays down for the rest of the run
};

/// What happens to an admitted flow refused on its post-failure path.
enum class ReroutePolicy {
  kDegrade,  ///< carry it on as datagram (the paper's fallback class)
  kPreempt,  ///< tear it down
};

struct ScenarioSpec {
  /// Largest fabric validate() accepts, in switches, checked for every
  /// fabric's parameters.  About 50x the largest fabric any test, preset or
  /// benchmark builds (the 21-switch fan-in tree of depth 3, width 4); a
  /// 1000-switch chain already takes 45 s and 116 MB for a 1 s smoke run
  /// on a 4-vCPU host.  Past it, a typo such as tree_depth=20 would
  /// exhaust memory while building the fabric instead of being refused.
  static constexpr std::int64_t kMaxSwitches = 1024;

  // ---- fabric ----------------------------------------------------------
  FabricKind fabric = FabricKind::kChain;
  int chain_switches = 8;
  int tree_depth = 2;   ///< switch levels (>= 2)
  int tree_width = 4;   ///< children per switch
  int parking_hops = 4; ///< bottleneck links
  int mesh_rows = 3;    ///< mesh fabric grid height
  int mesh_cols = 3;    ///< mesh fabric grid width
  int ring_switches = 6;
  int clos_spines = 2;
  int clos_leaves = 4;
  sim::Rate link_rate = sim::paper::kLinkRate;
  /// Per-hop rate multiplier for the parking lot (hop i runs at
  /// link_rate * parking_rate_step^i): != 1 gives asymmetric bottlenecks.
  double parking_rate_step = 1.0;
  std::size_t buffer_pkts = sim::paper::kBufferPackets;
  std::vector<sim::Duration> class_targets = {0.008, 0.064};

  // ---- workload --------------------------------------------------------
  /// Flow arrival rate (flows/s, Poisson).  <= 0: open target_flows in one
  /// deterministic batch at t=0 (bench/soak mode).
  double arrival_rate = 2.0;
  /// Arrivals stop after this window (<= 0: the whole run).
  sim::Duration arrival_window = 0;
  /// Cap on concurrently open flows (and the t=0 batch size).
  int target_flows = 24;
  /// Mean exponential holding time before a flow departs (<= 0: never).
  sim::Duration mean_hold = 20.0;
  double p_guaranteed = 0.2;  ///< service mix: P(guaranteed)
  double p_predicted = 0.5;   ///< P(predicted); the rest is datagram
  /// Fraction of flows drawn from the fabric's long (multi-bottleneck)
  /// origin-destination pairs; the rest take short/per-hop pairs.
  double long_flow_fraction = 0.35;
  SourceKind source = SourceKind::kOnOff;
  double avg_rate_pps = sim::paper::kAvgPacketRate;
  double peak_factor = sim::paper::kPeakFactor;
  sim::Bits packet_bits = sim::paper::kPacketBits;
  sim::Duration target_delay = 0.1;  ///< predicted flows' requested D
  double target_loss = 0.01;         ///< predicted flows' requested L
  /// On a guaranteed rejection, tear down the youngest predicted flow on
  /// the refusing hop and retry, up to 8 victims per request (each
  /// eviction recorded as kPreempted).
  bool preempt_on_reject = false;

  // ---- responsive traffic (DEC-TR-506 binary feedback) -----------------
  /// Congestion control for datagram flows (off | reno | bbr | rack | mix).
  CcKind cc = CcKind::kOff;
  /// Schedulers mark Packet::cong_mark when the time-averaged datagram
  /// queue length reaches mark_threshold; TCP sinks echo the bit and
  /// responsive sources run AIMD on the echoes.
  bool binary_feedback = false;
  double mark_threshold = 1.0;
  /// Receiver-window cap for responsive flows, in packets.
  double cc_max_cwnd = 64.0;

  // ---- failures --------------------------------------------------------
  /// Explicit failures (tools --fail-link, tests).  Validated against the
  /// built fabric at prepare() time; a nonexistent link throws.
  std::vector<LinkFailureSpec> link_failures;
  /// Seeded generation: each QoS link independently fails at exponential
  /// rate link_failure_rate (failures/s; 0 disables)...
  double link_failure_rate = 0;
  /// ...and repairs after an exponential holding time of this mean
  /// (seconds; 0: failures are permanent).
  sim::Duration link_repair_mean = 0;
  /// Probability a link repair is followed by a bounded flap burst
  /// (immediate down/up pairs on a dedicated RNG stream; 0 disables).
  double flap_prob = 0;
  int flap_burst_max = 3;          ///< max extra down/up pairs per burst
  sim::Duration flap_gap_mean = 0.05;  ///< mean gap inside a flap burst
  /// Switch crashes: each switch independently crashes at this exponential
  /// rate (crashes/s; 0 disables) taking ALL incident links down at once...
  double node_crash_rate = 0;
  /// ...and recovers after an exponential holding time (0: stays down).
  sim::Duration node_repair_mean = 0;
  /// Capacity brown-outs: each QoS link independently degrades to
  /// brownout_fraction of its as-built rate at this exponential rate...
  double brownout_rate = 0;
  double brownout_fraction = 0.5;      ///< degraded rate as a fraction
  sim::Duration brownout_mean = 2.0;   ///< mean brown-out duration
  /// Transient per-link packet loss episodes: Bernoulli(loss_prob) per
  /// transmitted packet while an episode is active.
  double loss_rate = 0;                ///< episodes/s per link (0: off)
  double loss_prob = 0.01;             ///< per-packet drop probability
  sim::Duration loss_mean = 1.0;       ///< mean episode duration
  /// Policy for admitted flows refused re-admission after a reroute.
  ReroutePolicy reroute_policy = ReroutePolicy::kDegrade;
  /// Retry re-admission of degraded flows when capacity returns: first
  /// retry after readmit_backoff seconds, each failure multiplying the
  /// delay by readmit_backoff_factor up to readmit_backoff_max, at most
  /// readmit_max_attempts tries per degradation (0 backoff disables).
  sim::Duration readmit_backoff = 0;
  double readmit_backoff_factor = 2.0;
  sim::Duration readmit_backoff_max = 10.0;
  int readmit_max_attempts = 6;
  /// Runtime invariant monitor cadence (sim seconds between audits of
  /// conservation, admission accounting and scheduler coherence; 0: off).
  sim::Duration invariant_cadence = 0;

  // ---- run -------------------------------------------------------------
  sim::Duration run_seconds = 30.0;
  sim::Duration drain_grace = 1.0;  ///< close-retry period for guaranteed
  std::uint64_t seed = 1;

  // ---- admission / measurement ----------------------------------------
  core::AdmissionController::Mode admission_mode =
      core::AdmissionController::Mode::kMeasurementBased;
  double datagram_quota = 0.1;
  sim::Duration measurement_window = 10.0;
  double measurement_safety = 1.2;
  core::LinkMeasurement::Estimator measurement_estimator =
      core::LinkMeasurement::Estimator::kPeakEpoch;
  double measurement_ewma_gain = 0.25;

  // ---- engine ----------------------------------------------------------
  /// Two-level aggregate scheduling: per-link scheduler state bounded by
  /// {guaranteed flows, K classes, datagram} instead of per-flow — the
  /// million-flow regime.  Default off (classic flat, byte-identical).
  bool hierarchical = false;
  /// Worker threads for the sharded parallel core (sim/shard.h).  0 keeps
  /// the classic single-clock path.  Any value >= 1 selects the sharded
  /// execution model: one domain per switch, conservative lookahead sync
  /// on link_latency — results are bit-identical for EVERY shards value
  /// >= 1 (the count only maps domains onto threads), but differ from
  /// shards=0 because cross-switch links gain propagation delay.
  int shards = 0;
  /// Propagation delay of switch-switch links in sharded mode (the
  /// lookahead window).
  sim::Duration link_latency = 0.001;

  /// Throws std::invalid_argument naming the offending field when the
  /// spec is out of range.  ScenarioRunner validates on construction, so
  /// hostile CLI/config values fail cleanly even in Release builds
  /// (where the library's asserts are compiled out).
  void validate() const;

  /// The IspnNetwork configuration this spec implies.
  [[nodiscard]] core::IspnNetwork::Config network_config() const;

  /// The seeded fault families this spec enables, as one FaultSpec for
  /// fault::draw_schedule (explicit link_failures are handled separately).
  [[nodiscard]] fault::FaultSpec fault_spec() const;

  /// One-line summary for logs and reports.
  [[nodiscard]] std::string describe() const;
};

/// Named presets: "chain", "fan_in", "parking_lot", "churn" (an
/// admission-churn chain: fast arrivals/departures against tight links),
/// "failure" (a mesh under seeded link failures and repairs with the EWMA
/// estimator, exercising rerouting and admission re-validation), "chaos"
/// (a mesh under ALL fault families — crashes, brown-outs, loss, flapping
/// — with the invariant monitor and re-admission backoff on).
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] ScenarioSpec preset(const std::string& name);

/// Scales a preset: "smoke" (sub-second), "small" (a few seconds, the
/// golden-trace size), "large" (million-packet class).
void apply_scale(ScenarioSpec& spec, const std::string& scale);

/// Parses a flat JSON-ish object ({"key": value, ...}; keys may be bare,
/// values are numbers, booleans or strings; '#' comments allowed) into an
/// existing spec — unknown keys or malformed values throw
/// std::invalid_argument with the offending key.  Accepted keys mirror
/// the field names above plus "preset" and "scale" (applied first, in
/// that order, regardless of file position).  Returns true when the text
/// contained a "preset" key — callers layering configs use this to
/// refuse a preset that would discard earlier settings.
bool apply_json(ScenarioSpec& spec, const std::string& text);

/// apply_json onto a default-constructed (or preset-selected) spec.
[[nodiscard]] ScenarioSpec spec_from_json(const std::string& text);

/// Applies one key=value override (the CLI's trailing args).  Throws
/// std::invalid_argument on unknown keys.  NOTE: "preset" REPLACES the
/// whole spec (discarding earlier overrides) — apply_json orders preset
/// before scale before everything else for exactly this reason, and the
/// CLI refuses --preset after other settings.
void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value);

[[nodiscard]] const char* to_string(FabricKind kind);
[[nodiscard]] const char* to_string(SourceKind kind);
[[nodiscard]] const char* to_string(CcKind kind);

}  // namespace ispn::scenario
