// The benchmark's workload table.
//
// Each workload is one ScenarioSpec run over a FIXED simulated horizon:
// `warm` simulated seconds first, then `slices` advance() calls of `slice`
// simulated seconds each (the measured window).  The seed is the only
// input a caller varies; everything else is pinned here.  All workloads
// use 1000-bit packets; see kSlowLinkRate for the link rates.
//
// Why these four (each stresses a different mix of src/ layers, and each
// optimisation has one workload that uses its mechanism and one that
// bypasses it):
//   fanin-cbr      bare forwarding: event core, port/switch/host and the
//                  scheduler's datagram path; no admission, transport,
//                  faults or shard sync — the "should not move" control.
//   parking-mix    the paper's architecture: the full unified scheduler
//                  (WFQ guaranteed heads, FIFO+ classes, overflow pushout)
//                  under live measurement-based admission with preemption,
//                  jitter accumulating over 4 hops.
//   chaos-cc       the same layers used differently: timer re-arms (RTO,
//                  pacing, reorder) instead of schedule/pop, two-way data
//                  and ACK streams with binary-feedback marking, reroutes
//                  and route rebuilds under all four fault families.
//   sharded-fanin  the only workload on the sharded engine (barrier
//                  windows, mailboxes, worker pool); same traffic shape as
//                  fanin-cbr, so a sync change should leave fanin-cbr flat.

#pragma once

#include <cstring>

#include "scenario/scenario.h"

namespace ispn::bench {

struct Workload {
  const char* name;
  sim::Duration warm;   ///< simulated warm-up before the measured window
  sim::Duration slice;  ///< simulated length of one measured advance()
  scenario::ScenarioSpec (*make)();
};

/// advance() calls in every measured window: the p99 slice time then has
/// ten samples beyond it.
inline constexpr int kSlices = 1000;

inline constexpr double kLinkRate = 1e8;
/// The two workloads with random arrivals and faults run at 10 Mb/s: ten
/// times the simulated time per packet, so a repeat averages over ten
/// times more flow arrivals and faults and seeds cost about the same.
inline constexpr double kSlowLinkRate = 1e7;
inline constexpr double kLoad = 0.9;

/// CBR datagram flows opened in one batch at t=0, never departing, with
/// per-flow rates that load `bottleneck_links` links at kLoad.
inline scenario::ScenarioSpec cbr_batch(int flows, int bottleneck_links) {
  scenario::ScenarioSpec spec;
  spec.link_rate = kLinkRate;
  spec.arrival_rate = 0;
  spec.mean_hold = 0;
  spec.p_guaranteed = 0;
  spec.p_predicted = 0;
  spec.source = scenario::SourceKind::kCbr;
  spec.target_flows = flows;
  spec.avg_rate_pps =
      kLoad * kLinkRate * bottleneck_links / spec.packet_bits / flows;
  return spec;
}

inline scenario::ScenarioSpec fanin_cbr() {
  scenario::ScenarioSpec spec = cbr_batch(1024, 4);
  spec.fabric = scenario::FabricKind::kFanInTree;
  spec.tree_depth = 2;
  spec.tree_width = 4;
  return spec;
}

inline scenario::ScenarioSpec parking_mix() {
  scenario::ScenarioSpec spec;
  spec.fabric = scenario::FabricKind::kParkingLot;
  spec.parking_hops = 4;
  spec.link_rate = kSlowLinkRate;
  spec.p_guaranteed = 0.2;
  spec.p_predicted = 0.5;
  spec.source = scenario::SourceKind::kOnOff;
  spec.avg_rate_pps = 200;
  spec.arrival_rate = 40;
  spec.mean_hold = 5;
  spec.target_flows = 256;
  spec.preempt_on_reject = true;
  spec.measurement_estimator = core::LinkMeasurement::Estimator::kEwma;
  return spec;
}

/// The chaos preset with three times the fault rate at a third of the
/// episode lengths, four times the flow arrivals, and responsive
/// datagram flows: enough fault and flow churn per seed that seeds cost
/// about the same work.
inline scenario::ScenarioSpec chaos_cc() {
  scenario::ScenarioSpec spec = scenario::preset("chaos");
  spec.link_rate = kSlowLinkRate;
  for (double* rate : {&spec.link_failure_rate, &spec.node_crash_rate,
                       &spec.brownout_rate, &spec.loss_rate}) {
    *rate *= 3;
  }
  for (double* mean : {&spec.link_repair_mean, &spec.node_repair_mean,
                       &spec.brownout_mean, &spec.loss_mean}) {
    *mean /= 3;
  }
  spec.invariant_cadence = 0.25;
  spec.cc = scenario::CcKind::kMix;
  spec.binary_feedback = true;
  spec.arrival_rate = 80;
  spec.target_flows = 512;
  return spec;
}

inline scenario::ScenarioSpec sharded_fanin() {
  scenario::ScenarioSpec spec = cbr_batch(1024, 4);
  spec.fabric = scenario::FabricKind::kFanInTree;
  spec.tree_depth = 3;
  spec.tree_width = 4;
  spec.shards = 4;
  spec.link_latency = 0.001;
  return spec;
}

// Horizons are sized to about 3 s of wall time per repeat on a 4-core
// x86 VM, so one benchmark run fits several repeats.
inline constexpr Workload kWorkloads[] = {
    {"fanin-cbr", 1.0, 0.02, fanin_cbr},
    {"parking-mix", 5.0, 0.15, parking_mix},
    {"chaos-cc", 2.0, 0.04, chaos_cc},
    {"sharded-fanin", 1.0, 0.01, sharded_fanin},
};

inline const Workload* find_workload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

}  // namespace ispn::bench
