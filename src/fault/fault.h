// Deterministic fault-injection plane (PR 9 tentpole).
//
// Generalizes the PR 6 link-failure schedule into one seeded FaultSchedule
// covering four fault families:
//
//   * link failures and repairs  — PR 6 semantics, stream 0xFA11; the
//     draw sequence is byte-identical to the original generator, so every
//     pre-existing golden trace survives unchanged;
//   * link flapping              — bounded up/down bursts appended to a
//     failure episode, drawn from a DEDICATED stream (0xFA15) so
//     flap_prob = 0 leaves the 0xFA11 sequence untouched;
//   * switch crashes/recoveries  — stream 0xFA12; the runner takes every
//     incident link down atomically, flushes scheduler state into the
//     node_failure_drops ledger bucket and recomputes routes ONCE;
//   * capacity brown-outs        — stream 0xFA13; a link's rate degrades
//     to a fraction and later restores (schedulers re-rated, admitted
//     flows re-validated against the reduced mu);
//   * transient packet loss      — stream 0xFA14 schedules the episodes;
//     the Bernoulli per-packet draws use a per-port stream
//     (kPortLossStreamBase | from<<16 | to) so loss on one link never
//     perturbs another link's sequence.
//
// The whole schedule is drawn up front (at ScenarioRunner::prepare()) and
// every event is grid-quantized through the runner's ctl() before it is
// registered with the simulator, so shard counts {0,1,2,4} replay it
// byte-identically.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"
#include "sim/units.h"

namespace ispn::fault {

/// Rng stream ids of the fault plane.  0xFA11 is PR 6's original failure
/// stream and must keep its draw order; the rest are new, disjoint from
/// the workload stream (0xFAB) and the per-flow source streams (>= 2^32).
constexpr std::uint64_t kLinkFaultStream = 0xFA11;
constexpr std::uint64_t kNodeFaultStream = 0xFA12;
constexpr std::uint64_t kBrownoutStream = 0xFA13;
constexpr std::uint64_t kLossEpisodeStream = 0xFA14;
constexpr std::uint64_t kFlapStream = 0xFA15;
/// Per-port Bernoulli loss streams: base | from << 16 | to.  Node ids are
/// dense small integers, so the composed stream never collides with the
/// per-flow source streams (different high bits).
constexpr std::uint64_t kPortLossStreamBase = 0x1055ull << 32;

/// Episode cap per target (link or switch) per family — bounds the
/// schedule even for effectively unbounded horizons (bench drives
/// run_seconds = 1e9), mirroring PR 6's kMaxFailuresPerLink.
constexpr int kMaxEpisodesPerTarget = 8;

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kNodeDown,
  kNodeUp,
  kBrownoutStart,  ///< value = surviving capacity fraction in (0, 1)
  kBrownoutEnd,
  kLossStart,      ///< value = per-packet Bernoulli drop probability
  kLossEnd,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault transition.  Link events carry both endpoints;
/// node events carry the switch in `a` (b = -1).
struct FaultEvent {
  sim::Time time = 0;
  FaultKind kind = FaultKind::kLinkDown;
  net::NodeId a = -1;
  net::NodeId b = -1;
  double value = 0;
};

/// Deterministic sequence, fully drawn before the run starts.  Events are
/// emitted family-by-family (links, then nodes, then brown-outs, then
/// loss); the simulator orders them by quantized time, and equal-time
/// ties resolve by registration order — a function of the spec alone.
using FaultSchedule = std::vector<FaultEvent>;

/// Knobs of the seeded generator.  All rates are events/s per target;
/// zero disables a family.  Assembled from ScenarioSpec::fault_spec().
struct FaultSpec {
  // Link failures (PR 6) + flapping.
  double link_failure_rate = 0;
  sim::Duration link_repair_mean = 0;  ///< <= 0: failures are permanent
  double flap_prob = 0;        ///< P(an episode recovers as a flap burst)
  int flap_burst_max = 3;      ///< extra down/up pairs per flapping episode
  sim::Duration flap_gap_mean = 0.05;  ///< mean gap between flap toggles
  // Switch crashes.
  double node_crash_rate = 0;
  sim::Duration node_repair_mean = 0;  ///< <= 0: crashes are permanent
  // Capacity brown-outs.
  double brownout_rate = 0;
  double brownout_fraction = 0.5;  ///< surviving capacity, in (0, 1)
  sim::Duration brownout_mean = 2.0;
  // Transient per-link loss.
  double loss_rate = 0;
  double loss_prob = 0.01;  ///< per-packet drop probability while active
  sim::Duration loss_mean = 1.0;

  /// True when any family is enabled.
  [[nodiscard]] bool any() const {
    return link_failure_rate > 0 || node_crash_rate > 0 || brownout_rate > 0 ||
           loss_rate > 0;
  }

  /// Throws std::invalid_argument naming the offending knob when a value
  /// is out of range (negative rate, fraction outside (0,1), ...).
  void validate() const;
};

/// Draws the complete schedule.  `links` is the undirected unique QoS
/// link list in registration order (PR 6's iteration order); `switches`
/// is the switch id list in ascending order.  Per-family episodes use
/// dedicated streams seeded from `seed`, so enabling one family never
/// perturbs another's draws.
[[nodiscard]] FaultSchedule draw_schedule(
    const FaultSpec& spec,
    const std::vector<std::pair<net::NodeId, net::NodeId>>& links,
    const std::vector<net::NodeId>& switches, std::uint64_t seed,
    sim::Duration horizon);

}  // namespace ispn::fault
