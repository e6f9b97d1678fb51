#include "scenario/scenario.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace ispn::scenario {

namespace {

[[noreturn]] void fail(const std::string& key, const std::string& what) {
  throw std::invalid_argument("scenario config: " + what + " '" + key + "'");
}

double parse_double(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    fail(key, "malformed number for");
  }
  if (used != v.size()) fail(key, "malformed number for");
  // NaN and infinity parse as numbers but poison every downstream
  // comparison (NaN in particular slips past range checks, since both
  // `d < lo` and `d > hi` are false) — reject them at the gate.
  if (!std::isfinite(out)) fail(key, "non-finite number for");
  return out;
}

/// Switches in a fan-in tree, Σ width^d for d < depth, summed only until
/// it passes `cap`, so no term overflows.  Needs depth >= 1, width >= 1.
std::int64_t tree_switches(int depth, int width, std::int64_t cap) {
  std::int64_t total = 0;
  std::int64_t level = 1;
  for (int d = 0; d < depth; ++d) {
    total += level;
    if (total > cap) break;
    level *= width;
  }
  return total;
}

int parse_int(const std::string& key, const std::string& v) {
  const double d = parse_double(key, v);
  // Range-check before the cast: casting an unrepresentable double to
  // int is undefined behaviour.
  if (d < -2147483648.0 || d > 2147483647.0) {
    fail(key, "integer out of range for");
  }
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) fail(key, "expected an integer for");
  return i;
}

std::size_t parse_size(const std::string& key, const std::string& v) {
  const int i = parse_int(key, v);
  // A negative int cast to size_t wraps to an astronomically large value
  // that sails through `>= 1` validation — refuse before the cast.
  if (i < 0) fail(key, "expected a non-negative integer for");
  return static_cast<std::size_t>(i);
}

std::uint64_t parse_seed(const std::string& key, const std::string& v) {
  const double d = parse_double(key, v);
  // Casting a negative (or 2^64-exceeding) double to uint64 is undefined
  // behaviour, not wraparound.
  if (d < 0 || d >= 18446744073709551616.0) {
    fail(key, "seed out of range for");
  }
  const auto u = static_cast<std::uint64_t>(d);
  if (static_cast<double>(u) != d) fail(key, "expected an integer for");
  return u;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  fail(key, "expected true/false for");
}

std::vector<double> parse_list(const std::string& key, const std::string& v) {
  std::vector<double> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(parse_double(key, item));
  if (out.empty()) fail(key, "expected a comma-separated list for");
  return out;
}

/// Parses the fail_link grammar SRC:DST@T[,up@T2] (the tools/scenario_run
/// --fail-link value).
LinkFailureSpec parse_fail_link(const std::string& key, const std::string& v) {
  LinkFailureSpec f;
  const auto comma = v.find(',');
  const std::string head = v.substr(0, comma);
  const auto colon = head.find(':');
  const auto at = head.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    fail(key, "expected SRC:DST@T[,up@T2] for");
  }
  f.src = parse_int(key, head.substr(0, colon));
  f.dst = parse_int(key, head.substr(colon + 1, at - colon - 1));
  f.down_at = parse_double(key, head.substr(at + 1));
  if (comma != std::string::npos) {
    const std::string tail = v.substr(comma + 1);
    if (tail.rfind("up@", 0) != 0) fail(key, "expected ',up@T2' in");
    f.up_at = parse_double(key, tail.substr(3));
  }
  return f;
}

}  // namespace

const char* to_string(FabricKind kind) {
  switch (kind) {
    case FabricKind::kChain: return "chain";
    case FabricKind::kFanInTree: return "fan_in_tree";
    case FabricKind::kParkingLot: return "parking_lot";
    case FabricKind::kMesh: return "mesh";
    case FabricKind::kRing: return "ring";
    case FabricKind::kClos: return "clos";
  }
  return "?";
}

const char* to_string(SourceKind kind) {
  switch (kind) {
    case SourceKind::kOnOff: return "onoff";
    case SourceKind::kCbr: return "cbr";
    case SourceKind::kPoisson: return "poisson";
  }
  return "?";
}

const char* to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kOff: return "off";
    case CcKind::kReno: return "reno";
    case CcKind::kBbr: return "bbr";
    case CcKind::kRack: return "rack";
    case CcKind::kMix: return "mix";
  }
  return "?";
}

void ScenarioSpec::validate() const {
  const auto check = [](bool ok, const char* field) {
    if (!ok) {
      throw std::invalid_argument(std::string("scenario config: ") + field +
                                  " out of range");
    }
  };
  // Switch counts in 64 bits: a product of two ints can overflow.
  const auto check_size = [](std::int64_t switches, const char* fields) {
    if (switches > kMaxSwitches) {
      throw std::invalid_argument(
          std::string("scenario config: ") + fields + " (need <= " +
          std::to_string(kMaxSwitches) + " switches) out of range");
    }
  };
  check(chain_switches >= 2, "chain_switches (need >= 2)");
  check_size(chain_switches, "chain_switches");
  check(tree_depth >= 2, "tree_depth (need >= 2)");
  check(tree_width >= 1, "tree_width (need >= 1)");
  check_size(tree_switches(tree_depth, tree_width, kMaxSwitches),
             "tree_depth/tree_width");
  check(parking_hops >= 1, "parking_hops (need >= 1)");
  check_size(std::int64_t{parking_hops} + 1, "parking_hops");
  const std::int64_t mesh_switches = std::int64_t{mesh_rows} * mesh_cols;
  check(mesh_rows >= 1 && mesh_cols >= 1 && mesh_switches >= 2,
        "mesh_rows/mesh_cols (need a >= 2 switch grid)");
  check_size(mesh_switches, "mesh_rows/mesh_cols");
  check(ring_switches >= 3, "ring_switches (need >= 3)");
  check_size(ring_switches, "ring_switches");
  check(clos_spines >= 1, "clos_spines (need >= 1)");
  check(clos_leaves >= 2, "clos_leaves (need >= 2)");
  check_size(std::int64_t{clos_spines} + clos_leaves,
             "clos_spines/clos_leaves");
  check(link_failure_rate >= 0, "link_failure_rate (need >= 0)");
  check(link_repair_mean >= 0, "link_repair_mean (need >= 0)");
  check(flap_prob >= 0 && flap_prob <= 1, "flap_prob (need [0,1])");
  check(flap_burst_max >= 1, "flap_burst_max (need >= 1)");
  check(flap_gap_mean > 0, "flap_gap_mean (need > 0)");
  // Flap bursts ride on repair events: generating failures without
  // repairs while asking for flaps is contradictory, not a silent no-op.
  check(flap_prob == 0 || link_failure_rate == 0 || link_repair_mean > 0,
        "flap_prob (flapping needs repairable links: link_repair_mean > 0)");
  check(node_crash_rate >= 0, "node_crash_rate (need >= 0)");
  check(node_repair_mean >= 0, "node_repair_mean (need >= 0)");
  check(brownout_rate >= 0, "brownout_rate (need >= 0)");
  check(brownout_fraction > 0 && brownout_fraction < 1,
        "brownout_fraction (need (0,1))");
  check(brownout_mean > 0, "brownout_mean (need > 0)");
  // A browned-out link must still clear its committed WFQ clock rates:
  // the fraction may not eat the whole non-datagram share.
  check(brownout_rate == 0 || brownout_fraction > datagram_quota,
        "brownout_fraction (need > datagram_quota or guaranteed flows "
        "cannot survive a brown-out)");
  check(loss_rate >= 0, "loss_rate (need >= 0)");
  check(loss_prob >= 0 && loss_prob <= 1, "loss_prob (need [0,1])");
  check(loss_mean > 0, "loss_mean (need > 0)");
  // Loss episodes that drop nothing are a contradiction, not a no-op.
  check(loss_rate == 0 || loss_prob > 0,
        "loss_prob (loss_rate is set but episodes would drop nothing)");
  check(readmit_backoff >= 0, "readmit_backoff (need >= 0)");
  check(readmit_backoff_factor >= 1,
        "readmit_backoff_factor (need >= 1)");
  check(readmit_backoff_max >= readmit_backoff,
        "readmit_backoff_max (need >= readmit_backoff)");
  check(readmit_max_attempts >= 1, "readmit_max_attempts (need >= 1)");
  check(invariant_cadence >= 0, "invariant_cadence (need >= 0)");
  for (const auto& f : link_failures) {
    check(f.src >= 0 && f.dst >= 0 && f.src != f.dst,
          "link_failures (need distinct non-negative node ids)");
    check(f.down_at >= 0, "link_failures (need down_at >= 0)");
    check(f.up_at < 0 || f.up_at > f.down_at,
          "link_failures (need up_at > down_at)");
  }
  check(link_rate > 0, "link_rate (need > 0)");
  check(parking_rate_step > 0, "parking_rate_step (need > 0)");
  check(buffer_pkts >= 1, "buffer_pkts (need >= 1)");
  check(!class_targets.empty() &&
            std::is_sorted(class_targets.begin(), class_targets.end()) &&
            class_targets.front() > 0,
        "class_targets (need ascending positives)");
  check(target_flows >= 1, "target_flows (need >= 1)");
  check(p_guaranteed >= 0 && p_predicted >= 0 &&
            p_guaranteed + p_predicted <= 1.0 + 1e-12,
        "p_guaranteed/p_predicted (need a sub-unit mix)");
  check(long_flow_fraction >= 0 && long_flow_fraction <= 1,
        "long_flow_fraction (need [0,1])");
  check(avg_rate_pps > 0, "avg_rate_pps (need > 0)");
  check(peak_factor >= 1, "peak_factor (need >= 1)");
  check(packet_bits > 0, "packet_bits (need > 0)");
  check(target_delay > 0, "target_delay (need > 0)");
  check(target_loss >= 0 && target_loss <= 1, "target_loss (need [0,1])");
  check(run_seconds > 0, "run_seconds (need > 0)");
  check(drain_grace > 0, "drain_grace (need > 0)");
  check(datagram_quota > 0 && datagram_quota < 1,
        "datagram_quota (need (0,1))");
  check(measurement_window > 0, "measurement_window (need > 0)");
  check(measurement_safety >= 1, "measurement_safety (need >= 1)");
  check(measurement_ewma_gain > 0 && measurement_ewma_gain <= 1,
        "measurement_ewma_gain (need (0,1])");
  check(shards >= 0, "shards (need >= 0)");
  check(shards == 0 || link_latency > 0,
        "link_latency (need > 0 with shards >= 1)");
  check(mark_threshold > 0, "mark_threshold (need > 0)");
  check(cc_max_cwnd >= 2, "cc_max_cwnd (need >= 2)");
}

core::IspnNetwork::Config ScenarioSpec::network_config() const {
  core::IspnNetwork::Config cfg;
  cfg.link_rate = link_rate;
  cfg.buffer_pkts = buffer_pkts;
  cfg.class_targets = class_targets;
  cfg.admission = {admission_mode, datagram_quota};
  cfg.enforce_admission = false;  // the runner records, never throws
  cfg.measurement_window = measurement_window;
  cfg.measurement_safety = measurement_safety;
  cfg.measurement_estimator = measurement_estimator;
  cfg.measurement_ewma_gain = measurement_ewma_gain;
  cfg.seed = seed;
  cfg.sharded = shards >= 1;
  cfg.link_latency = link_latency;
  cfg.hierarchical = hierarchical;
  cfg.binary_feedback = binary_feedback;
  cfg.mark_threshold = mark_threshold;
  return cfg;
}

fault::FaultSpec ScenarioSpec::fault_spec() const {
  fault::FaultSpec f;
  f.link_failure_rate = link_failure_rate;
  f.link_repair_mean = link_repair_mean;
  f.flap_prob = flap_prob;
  f.flap_burst_max = flap_burst_max;
  f.flap_gap_mean = flap_gap_mean;
  f.node_crash_rate = node_crash_rate;
  f.node_repair_mean = node_repair_mean;
  f.brownout_rate = brownout_rate;
  f.brownout_fraction = brownout_fraction;
  f.brownout_mean = brownout_mean;
  f.loss_rate = loss_rate;
  f.loss_prob = loss_prob;
  f.loss_mean = loss_mean;
  return f;
}

std::string ScenarioSpec::describe() const {
  std::ostringstream out;
  out << "fabric=" << to_string(fabric);
  switch (fabric) {
    case FabricKind::kChain: out << " switches=" << chain_switches; break;
    case FabricKind::kFanInTree:
      out << " depth=" << tree_depth << " width=" << tree_width;
      break;
    case FabricKind::kParkingLot:
      out << " hops=" << parking_hops << " step=" << parking_rate_step;
      break;
    case FabricKind::kMesh:
      out << " grid=" << mesh_rows << "x" << mesh_cols;
      break;
    case FabricKind::kRing: out << " switches=" << ring_switches; break;
    case FabricKind::kClos:
      out << " spines=" << clos_spines << " leaves=" << clos_leaves;
      break;
  }
  out << " link=" << link_rate / 1e6 << "Mb/s flows<=" << target_flows
      << " arrivals=" << arrival_rate << "/s hold=" << mean_hold << "s mix=G"
      << p_guaranteed << "/P" << p_predicted << " source="
      << to_string(source) << " run=" << run_seconds << "s seed=" << seed;
  if (shards >= 1) {
    out << " shards=" << shards << " latency=" << link_latency * 1e3 << "ms";
  }
  if (hierarchical) out << " hierarchical";
  if (cc != CcKind::kOff) out << " cc=" << to_string(cc);
  if (binary_feedback) out << " feedback@" << mark_threshold;
  if (!link_failures.empty() || link_failure_rate > 0) {
    out << " failures=" << link_failures.size();
    if (link_failure_rate > 0) {
      out << "+rate" << link_failure_rate << "/s";
      if (link_repair_mean > 0) out << " repair=" << link_repair_mean << "s";
    }
    out << " policy="
        << (reroute_policy == ReroutePolicy::kDegrade ? "degrade" : "preempt");
  }
  if (node_crash_rate > 0) {
    out << " crashes=" << node_crash_rate << "/s";
    if (node_repair_mean > 0) out << " noderepair=" << node_repair_mean << "s";
  }
  if (brownout_rate > 0) {
    out << " brownouts=" << brownout_rate << "/s@x" << brownout_fraction;
  }
  if (loss_rate > 0) out << " loss=" << loss_rate << "/s@p" << loss_prob;
  if (flap_prob > 0) out << " flap=" << flap_prob;
  if (readmit_backoff > 0) out << " readmit=" << readmit_backoff << "s";
  if (invariant_cadence > 0) out << " monitor=" << invariant_cadence << "s";
  return out.str();
}

ScenarioSpec preset(const std::string& name) {
  ScenarioSpec spec;
  if (name == "chain") {
    spec.fabric = FabricKind::kChain;
    spec.chain_switches = 8;
  } else if (name == "fan_in") {
    spec.fabric = FabricKind::kFanInTree;
    spec.tree_depth = 2;
    spec.tree_width = 4;
    spec.target_flows = 16;
    spec.arrival_rate = 4.0;
  } else if (name == "parking_lot") {
    spec.fabric = FabricKind::kParkingLot;
    spec.parking_hops = 4;
    spec.target_flows = 24;
  } else if (name == "churn") {
    // Admission churn: tight links under fast arrivals and departures, so
    // the live ν̂/d̂ feed actually refuses (and with preemption, evicts).
    spec.fabric = FabricKind::kChain;
    spec.chain_switches = 6;
    spec.arrival_rate = 10.0;
    spec.mean_hold = 3.0;
    spec.target_flows = 48;
    spec.p_guaranteed = 0.35;
    spec.p_predicted = 0.45;
    spec.preempt_on_reject = true;
    // Churn needs a ν̂ that decays when flows leave: the time-window peak
    // estimator holds a departed flow's peak for a full window, starving
    // admission of freed capacity.
    spec.measurement_estimator = core::LinkMeasurement::Estimator::kEwma;
  } else if (name == "failure") {
    // Link failures on a mesh: every pair keeps an alternate path, so
    // failures trigger rerouting + admission re-validation instead of
    // partition.  The EWMA estimator decays the dead link's history.
    spec.fabric = FabricKind::kMesh;
    spec.mesh_rows = 3;
    spec.mesh_cols = 3;
    spec.arrival_rate = 6.0;
    spec.mean_hold = 8.0;
    spec.target_flows = 36;
    spec.p_guaranteed = 0.3;
    spec.p_predicted = 0.4;
    spec.link_failure_rate = 0.04;
    spec.link_repair_mean = 4.0;
    spec.measurement_estimator = core::LinkMeasurement::Estimator::kEwma;
  } else if (name == "chaos") {
    // Everything at once: link failures with flapping, switch crashes,
    // capacity brown-outs, transient loss — on a mesh (alternate paths
    // everywhere), with the invariant monitor auditing continuously and
    // degraded flows retrying re-admission under exponential backoff.
    spec.fabric = FabricKind::kMesh;
    spec.mesh_rows = 3;
    spec.mesh_cols = 3;
    spec.arrival_rate = 6.0;
    spec.mean_hold = 8.0;
    spec.target_flows = 36;
    spec.p_guaranteed = 0.3;
    spec.p_predicted = 0.4;
    spec.link_failure_rate = 0.04;
    spec.link_repair_mean = 3.0;
    spec.flap_prob = 0.25;
    spec.node_crash_rate = 0.01;
    spec.node_repair_mean = 2.0;
    spec.brownout_rate = 0.03;
    spec.brownout_fraction = 0.5;
    spec.brownout_mean = 2.0;
    spec.loss_rate = 0.05;
    spec.loss_prob = 0.02;
    spec.loss_mean = 1.0;
    spec.readmit_backoff = 0.5;
    spec.invariant_cadence = 0.5;
    spec.measurement_estimator = core::LinkMeasurement::Estimator::kEwma;
  } else {
    throw std::invalid_argument("unknown scenario preset '" + name + "'");
  }
  return spec;
}

void apply_scale(ScenarioSpec& spec, const std::string& scale) {
  if (scale == "smoke") {
    spec.run_seconds = 1.0;
    spec.drain_grace = 0.25;
  } else if (scale == "small") {
    spec.run_seconds = 6.0;
    spec.drain_grace = 0.5;
  } else if (scale == "large") {
    // Million-packet class: 10x links, 10x source rates, longer run.
    spec.link_rate *= 10.0;
    spec.avg_rate_pps *= 10.0;
    spec.target_flows = std::max(spec.target_flows, 48);
    spec.run_seconds = 120.0;
  } else {
    throw std::invalid_argument("unknown scenario scale '" + scale + "'");
  }
}

void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value) {
  if (key == "preset") {
    const ScenarioSpec base = preset(value);
    spec = base;
  } else if (key == "scale") {
    apply_scale(spec, value);
  } else if (key == "fabric") {
    if (value == "chain") spec.fabric = FabricKind::kChain;
    else if (value == "fan_in_tree" || value == "fan_in")
      spec.fabric = FabricKind::kFanInTree;
    else if (value == "parking_lot") spec.fabric = FabricKind::kParkingLot;
    else if (value == "mesh") spec.fabric = FabricKind::kMesh;
    else if (value == "ring") spec.fabric = FabricKind::kRing;
    else if (value == "clos") spec.fabric = FabricKind::kClos;
    else fail(key, "unknown fabric for");
  } else if (key == "chain_switches") {
    spec.chain_switches = parse_int(key, value);
  } else if (key == "tree_depth") {
    spec.tree_depth = parse_int(key, value);
  } else if (key == "tree_width") {
    spec.tree_width = parse_int(key, value);
  } else if (key == "parking_hops") {
    spec.parking_hops = parse_int(key, value);
  } else if (key == "mesh_rows") {
    spec.mesh_rows = parse_int(key, value);
  } else if (key == "mesh_cols") {
    spec.mesh_cols = parse_int(key, value);
  } else if (key == "ring_switches") {
    spec.ring_switches = parse_int(key, value);
  } else if (key == "clos_spines") {
    spec.clos_spines = parse_int(key, value);
  } else if (key == "clos_leaves") {
    spec.clos_leaves = parse_int(key, value);
  } else if (key == "fail_link") {
    // Appends (several --fail-link flags compose).
    spec.link_failures.push_back(parse_fail_link(key, value));
  } else if (key == "link_failure_rate") {
    spec.link_failure_rate = parse_double(key, value);
  } else if (key == "link_repair_mean") {
    spec.link_repair_mean = parse_double(key, value);
  } else if (key == "flap_prob") {
    spec.flap_prob = parse_double(key, value);
  } else if (key == "flap_burst_max") {
    spec.flap_burst_max = parse_int(key, value);
  } else if (key == "flap_gap_mean") {
    spec.flap_gap_mean = parse_double(key, value);
  } else if (key == "node_crash_rate") {
    spec.node_crash_rate = parse_double(key, value);
  } else if (key == "node_repair_mean") {
    spec.node_repair_mean = parse_double(key, value);
  } else if (key == "brownout_rate") {
    spec.brownout_rate = parse_double(key, value);
  } else if (key == "brownout_fraction") {
    spec.brownout_fraction = parse_double(key, value);
  } else if (key == "brownout_mean") {
    spec.brownout_mean = parse_double(key, value);
  } else if (key == "loss_rate") {
    spec.loss_rate = parse_double(key, value);
  } else if (key == "loss_prob") {
    spec.loss_prob = parse_double(key, value);
  } else if (key == "loss_mean") {
    spec.loss_mean = parse_double(key, value);
  } else if (key == "readmit_backoff") {
    spec.readmit_backoff = parse_double(key, value);
  } else if (key == "readmit_backoff_factor") {
    spec.readmit_backoff_factor = parse_double(key, value);
  } else if (key == "readmit_backoff_max") {
    spec.readmit_backoff_max = parse_double(key, value);
  } else if (key == "readmit_max_attempts") {
    spec.readmit_max_attempts = parse_int(key, value);
  } else if (key == "invariant_cadence") {
    spec.invariant_cadence = parse_double(key, value);
  } else if (key == "reroute_policy") {
    if (value == "degrade") spec.reroute_policy = ReroutePolicy::kDegrade;
    else if (value == "preempt") spec.reroute_policy = ReroutePolicy::kPreempt;
    else fail(key, "unknown reroute policy for");
  } else if (key == "link_rate") {
    spec.link_rate = parse_double(key, value);
  } else if (key == "parking_rate_step") {
    spec.parking_rate_step = parse_double(key, value);
  } else if (key == "buffer_pkts") {
    spec.buffer_pkts = parse_size(key, value);
  } else if (key == "class_targets") {
    spec.class_targets = parse_list(key, value);
  } else if (key == "arrival_rate") {
    spec.arrival_rate = parse_double(key, value);
  } else if (key == "arrival_window") {
    spec.arrival_window = parse_double(key, value);
  } else if (key == "target_flows") {
    spec.target_flows = parse_int(key, value);
  } else if (key == "mean_hold") {
    spec.mean_hold = parse_double(key, value);
  } else if (key == "p_guaranteed") {
    spec.p_guaranteed = parse_double(key, value);
  } else if (key == "p_predicted") {
    spec.p_predicted = parse_double(key, value);
  } else if (key == "long_flow_fraction") {
    spec.long_flow_fraction = parse_double(key, value);
  } else if (key == "source") {
    if (value == "onoff") spec.source = SourceKind::kOnOff;
    else if (value == "cbr") spec.source = SourceKind::kCbr;
    else if (value == "poisson") spec.source = SourceKind::kPoisson;
    else fail(key, "unknown source kind for");
  } else if (key == "avg_rate_pps") {
    spec.avg_rate_pps = parse_double(key, value);
  } else if (key == "peak_factor") {
    spec.peak_factor = parse_double(key, value);
  } else if (key == "packet_bits") {
    spec.packet_bits = parse_double(key, value);
  } else if (key == "target_delay") {
    spec.target_delay = parse_double(key, value);
  } else if (key == "target_loss") {
    spec.target_loss = parse_double(key, value);
  } else if (key == "cc") {
    if (value == "off") spec.cc = CcKind::kOff;
    else if (value == "reno") spec.cc = CcKind::kReno;
    else if (value == "bbr") spec.cc = CcKind::kBbr;
    else if (value == "rack") spec.cc = CcKind::kRack;
    else if (value == "mix") spec.cc = CcKind::kMix;
    else fail(key, "unknown congestion control for");
  } else if (key == "binary_feedback") {
    spec.binary_feedback = parse_bool(key, value);
  } else if (key == "mark_threshold") {
    spec.mark_threshold = parse_double(key, value);
  } else if (key == "cc_max_cwnd") {
    spec.cc_max_cwnd = parse_double(key, value);
  } else if (key == "preempt_on_reject") {
    spec.preempt_on_reject = parse_bool(key, value);
  } else if (key == "run_seconds") {
    spec.run_seconds = parse_double(key, value);
  } else if (key == "drain_grace") {
    spec.drain_grace = parse_double(key, value);
  } else if (key == "seed") {
    spec.seed = parse_seed(key, value);
  } else if (key == "admission_mode") {
    if (value == "measurement")
      spec.admission_mode = core::AdmissionController::Mode::kMeasurementBased;
    else if (value == "parameter")
      spec.admission_mode = core::AdmissionController::Mode::kParameterBased;
    else fail(key, "unknown admission mode for");
  } else if (key == "datagram_quota") {
    spec.datagram_quota = parse_double(key, value);
  } else if (key == "measurement_window") {
    spec.measurement_window = parse_double(key, value);
  } else if (key == "measurement_safety") {
    spec.measurement_safety = parse_double(key, value);
  } else if (key == "measurement_estimator") {
    if (value == "peak")
      spec.measurement_estimator = core::LinkMeasurement::Estimator::kPeakEpoch;
    else if (value == "ewma")
      spec.measurement_estimator = core::LinkMeasurement::Estimator::kEwma;
    else fail(key, "unknown estimator for");
  } else if (key == "measurement_ewma_gain") {
    spec.measurement_ewma_gain = parse_double(key, value);
  } else if (key == "shards") {
    spec.shards = parse_int(key, value);
  } else if (key == "link_latency") {
    spec.link_latency = parse_double(key, value);
  } else if (key == "hierarchical") {
    spec.hierarchical = parse_bool(key, value);
  } else {
    fail(key, "unknown key");
  }
}

namespace {

/// Tokenizes the JSON-ish object into (key, value) pairs.  Grammar:
/// optional outer { }; entries "key": value or key = value, separated by
/// commas and/or newlines; values are bare tokens or quoted strings; '#'
/// starts a comment.
std::vector<std::pair<std::string, std::string>> tokenize(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t i = 0;
  const auto skip = [&] {
    while (i < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[i])) != 0 ||
          text[i] == ',' || text[i] == '{' || text[i] == '}') {
        ++i;
      } else if (text[i] == '#') {
        while (i < text.size() && text[i] != '\n') ++i;
      } else {
        break;
      }
    }
  };
  const auto token = [&]() -> std::string {
    if (i < text.size() && text[i] == '"') {
      const std::size_t start = ++i;
      while (i < text.size() && text[i] != '"') ++i;
      if (i >= text.size()) {
        throw std::invalid_argument("scenario config: unterminated string");
      }
      return text.substr(start, i++ - start);
    }
    const std::size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0 &&
           text[i] != ':' && text[i] != '=' && text[i] != ',' &&
           text[i] != '}' && text[i] != '#') {
      ++i;
    }
    return text.substr(start, i - start);
  };
  while (true) {
    skip();
    if (i >= text.size()) break;
    const std::string key = token();
    if (key.empty()) {
      throw std::invalid_argument("scenario config: expected a key");
    }
    skip();
    if (i < text.size() && (text[i] == ':' || text[i] == '=')) ++i;
    skip();
    const std::string value = token();
    if (value.empty()) {
      throw std::invalid_argument("scenario config: missing value for '" +
                                  key + "'");
    }
    pairs.emplace_back(key, value);
  }
  return pairs;
}

}  // namespace

bool apply_json(ScenarioSpec& spec, const std::string& text) {
  auto pairs = tokenize(text);
  // Apply preset first (it REPLACES the spec), then scale, then every
  // other key — so overrides always win regardless of file order.
  std::stable_partition(pairs.begin(), pairs.end(),
                        [](const auto& kv) { return kv.first == "scale"; });
  std::stable_partition(pairs.begin(), pairs.end(),
                        [](const auto& kv) { return kv.first == "preset"; });
  bool contained_preset = false;
  for (const auto& [key, value] : pairs) {
    contained_preset = contained_preset || key == "preset";
    apply_override(spec, key, value);
  }
  return contained_preset;
}

ScenarioSpec spec_from_json(const std::string& text) {
  ScenarioSpec spec;
  apply_json(spec, text);
  return spec;
}

}  // namespace ispn::scenario
