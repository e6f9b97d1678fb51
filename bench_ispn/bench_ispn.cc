// bench_ispn: one repeat of one ISPN benchmark workload.
//
//   bench_ispn WORKLOAD [--seed N] [--scale F] [--shards N] [--trace]
//   bench_ispn --reference
//
// Runs the workload's fixed simulated horizon (workloads.h) through the
// public ScenarioRunner API — constructor, prepare(), advance() over the
// warm-up, advance() in fixed slices over the measured window, finish() —
// and prints one JSON object on stdout: the timings, a digest of the
// report's deterministic fields, the correctness checks and, with
// --trace, the per-layer metrics and the span list.  Set-up time
// (constructor + prepare()) is sampled by a throwaway set-up after every
// tenth of the measured window.  run.py starts one process per repeat and
// reads its rusage.
// --reference only times the host-speed reference loop and prints its
// milliseconds; run.py runs it in its own process before each repeat.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage or configuration error.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "scenario/runner.h"
#include "workloads.h"

namespace {

using namespace ispn;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Throwaway set-ups interleaved with the measured window, one after
/// every 1/kSetups of it: the samples are spread over the repeat instead
/// of all landing in one phase of a shared host's load, and each finds
/// the running simulation's state in the caches, as a real set-up would.
/// Their time is left out of every other measurement.
constexpr std::size_t kSetups = 10;

volatile std::uint64_t g_reference_sink = 0;

/// A fixed integer loop (about 100 ms on a 4-core x86 VM): a host-speed
/// reference that shows when a shared machine was slow.  Reported only;
/// no metric is rescaled by it.
double reference_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1000003;
  }
  g_reference_sink = acc;
  return 1e3 * secs(t0, Clock::now());
}

/// The process's peak resident set (VmHWM), in kB.  getrusage() cannot
/// give it: ru_maxrss survives exec, so a child reports its parent's peak
/// whenever that is larger.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb;
}

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of the report's deterministic fields: the ledger, event count,
/// end time, admission decisions, per-class deliveries and mean delays,
/// and the cache, congestion-control and fault counters.  A change that
/// only makes the simulator faster leaves it unchanged.  The monitor's
/// audit count is left out: the traced repeat adds one audit.
std::uint64_t sim_digest(const scenario::ScenarioReport& r) {
  Fnv h;
  for (const std::uint64_t v :
       {r.generated, r.source_drops, r.injected, r.delivered, r.net_drops,
        r.failed_link_drops, r.node_failure_drops, r.fault_drops,
        r.queued_end, r.unclaimed, r.events, r.decision_hash(),
        r.flows_offered, r.flows_admitted, r.flows_rejected,
        r.flows_preempted, r.links_failed, r.links_repaired,
        r.flows_rerouted, r.flows_degraded, r.flows_orphaned,
        r.nodes_crashed, r.nodes_recovered, r.brownouts, r.loss_episodes,
        r.flows_restored, r.restore_attempts, r.invariant_violations,
        r.cc_flows, r.cc_marks, r.cc_mark_samples, r.cc_echoes,
        r.cc_backoffs, r.tcp_segments, r.tcp_delivered, r.tcp_retransmits,
        r.tcp_timeouts, r.tcp_reorder_timeouts, r.route_cache_hits,
        r.route_cache_misses, r.sink_cache_hits, r.sink_cache_misses,
        r.sink_label_hits}) {
    h.add(v);
  }
  h.add(r.end_time);
  for (const scenario::ClassStats& c : r.classes) {
    h.add(c.delivered);
    h.add(c.delay.mean());
  }
  return h.value();
}

/// Checks on the run's output; returns the names of those that failed.
std::vector<std::string> check(const scenario::ScenarioSpec& spec,
                               const scenario::ScenarioReport& r,
                               std::uint64_t measured_delivered) {
  std::vector<std::string> failed;
  if (!r.conserved()) failed.emplace_back("conservation");
  if (r.invariant_violations > 0) failed.emplace_back("invariants");
  if (r.delivered == 0 || measured_delivered == 0) {
    failed.emplace_back("deliveries");
  }
  // The paper's guarantee: an admitted guaranteed flow on an unchanged
  // path never queues beyond its Parekh-Gallager bound.  Fault workloads
  // re-rate links under live flows, so the a-priori bound does not apply.
  if (!spec.fault_spec().any() && spec.link_failures.empty()) {
    for (const scenario::FlowOutcome& f : r.flows) {
      if (f.service == net::ServiceClass::kGuaranteed && f.admitted &&
          f.path_epochs == 1 && f.max_delay > f.bound * (1 + 1e-9)) {
        failed.emplace_back("guaranteed_bound");
        break;
      }
    }
  }
  return failed;
}

/// Minimal JSON object writer (keys are fixed identifiers).
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(key, q + "\"");
  }
  Json& raw(const char* key, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string out_;
};

struct Options {
  const bench::Workload* workload = nullptr;
  std::uint64_t seed = 7;
  double scale = 1.0;
  int shards = 0;  ///< < 1: the workload's own setting
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument("missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed") {
      o.seed = std::strtoull(need(i), nullptr, 10);
    } else if (a == "--scale") {
      o.scale = std::atof(need(i));
    } else if (a == "--shards") {
      o.shards = std::atoi(need(i));
    } else if (a == "--trace") {
      o.trace = true;
    } else if (o.workload == nullptr && a.rfind("--", 0) != 0) {
      o.workload = bench::find_workload(a.c_str());
      if (o.workload == nullptr) {
        throw std::invalid_argument("unknown workload '" + a + "'");
      }
    } else {
      throw std::invalid_argument("unexpected argument '" + a + "'");
    }
  }
  if (o.workload == nullptr) throw std::invalid_argument("no workload");
  if (!(o.scale > 0 && o.scale <= 1)) {
    throw std::invalid_argument("--scale must be in (0, 1]");
  }
  return o;
}

/// Counters sampled at the edges of the measured window.
struct Edge {
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t decisions = 0;
  std::vector<std::uint64_t> tx;     ///< per QoS link
  std::vector<std::uint64_t> drops;  ///< per QoS link
};

Edge sample_edge(scenario::ScenarioRunner& runner) {
  Edge e;
  e.delivered = runner.delivered();
  e.events = runner.events_processed();
  e.rounds = runner.engine() != nullptr ? runner.engine()->rounds() : 0;
  e.decisions = runner.decisions().size();
  for (const core::LinkId& link : runner.ispn().links()) {
    net::Port* port = runner.net().port(link.first, link.second);
    e.tx.push_back(port->transmitted());
    e.drops.push_back(port->drops());
  }
  return e;
}

std::size_t pending_events(scenario::ScenarioRunner& runner) {
  std::size_t n = runner.net().sim().pending();
  if (runner.net().sharded()) {
    for (std::size_t d = 0; d < runner.net().num_domains(); ++d) {
      n += runner.net().domain_sim(d).pending();
    }
  }
  return n;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// Timestamps and samples of one repeat.
struct Repeat {
  std::vector<Interval> setups;  ///< throwaway set-ups, constructor ->
                                 ///< prepare() returned
  Interval run_setup;            ///< the running instance's set-up
  Clock::time_point ctor_end;    ///< the running instance's constructor
  Clock::time_point warm_end;
  std::vector<Interval> slices;  ///< advance() calls of the measured window
  double interleaved_s = 0;      ///< wall time between slices (set-ups)
  Interval audit;
  Interval finish;
  Edge e0, e1;
  double pending_sum = 0;         ///< traced: summed at slice ends
  std::vector<double> depth_sum;  ///< traced: per QoS link, at slice ends
  std::size_t busiest = 0;        ///< QoS link with the most transmissions
  std::vector<net::FlowId> crossing;  ///< flows registered on `busiest`

  [[nodiscard]] double count() const {
    return static_cast<double>(slices.size());
  }
  [[nodiscard]] double measured_wall() const {
    double s = 0;
    for (const Interval& i : slices) s += secs(i.first, i.second);
    return s;
  }
};

/// sched: the enqueue+dequeue replay on the busiest link — its scheduler
/// configuration, the flows registered on it at the end of the measured
/// window, packets in the run's class proportions, held at the link's
/// mean queue depth.  Predicted priority levels are not visible through
/// the public API; predicted flows alternate over the K levels.
double sched_replay(scenario::ScenarioRunner& runner,
                    const scenario::ScenarioReport& report,
                    const Repeat& rep) {
  const scenario::ScenarioSpec& spec = runner.spec();
  const core::IspnNetwork::Config& nc = runner.ispn().config();
  const core::LinkId link = runner.ispn().links()[rep.busiest];
  const int levels = static_cast<int>(nc.class_targets.size());
  sched::UnifiedScheduler::Config sc{
      runner.ispn().link_base_rate(link), nc.buffer_pkts, levels,
      nc.fifo_plus_gain, nc.fifo_plus, nc.stale_offset_threshold};
  sc.order_backend = nc.order_backend;
  sc.hierarchical = nc.hierarchical;
  sc.binary_feedback = nc.binary_feedback;
  sc.mark_threshold = nc.mark_threshold;

  std::vector<std::pair<net::FlowId, sim::Rate>> guaranteed;
  std::vector<std::pair<net::FlowId, int>> predicted;
  for (const net::FlowId f : rep.crossing) {
    const auto service = report.flows.at(static_cast<std::size_t>(f)).service;
    if (service == net::ServiceClass::kGuaranteed) {
      guaranteed.emplace_back(
          f, spec.avg_rate_pps * spec.packet_bits * spec.peak_factor);
    } else if (service == net::ServiceClass::kPredicted) {
      predicted.emplace_back(f, static_cast<int>(f) % levels);
    }
  }
  const auto delivered = [&](net::ServiceClass c) {
    return static_cast<double>(
        report.classes[static_cast<std::size_t>(c)].delivered);
  };
  const double g =
      guaranteed.empty() ? 0 : delivered(net::ServiceClass::kGuaranteed);
  const double p =
      predicted.empty() ? 0 : delivered(net::ServiceClass::kPredicted);
  const double all = g + p + delivered(net::ServiceClass::kDatagram);
  std::vector<bench::ReplayPacket> mix;
  for (std::size_t i = 0; i < 100; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / 100.0 * all;
    if (u < g) {
      mix.push_back({guaranteed[i % guaranteed.size()].first,
                     net::ServiceClass::kGuaranteed, 0});
    } else if (u < g + p) {
      const auto& [flow, level] = predicted[i % predicted.size()];
      mix.push_back({flow, net::ServiceClass::kPredicted,
                     static_cast<std::uint8_t>(level)});
    } else {
      // Datagram flows hold no registration: any unregistered id will do.
      mix.push_back({static_cast<net::FlowId>((1 << 30) + i % 64),
                     net::ServiceClass::kDatagram, 0});
    }
  }
  const double depth = rep.depth_sum[rep.busiest] / rep.count();
  return bench::enqdeq_ns(sc, guaranteed, predicted, mix,
                          static_cast<std::size_t>(std::lround(depth)));
}

/// Unit costs of one replay per layer, with the (name, start) of each
/// replay; the last mark ends the last replay.
struct Replays {
  double event_ns = 0, rearm_ns = 0, enqdeq_ns = 0, measure_ns = 0;
  double open_close_us = 0, build_fabric_ms = 0, rebuild_routes_us = 0;
  std::vector<std::pair<const char*, Clock::time_point>> marks;
};

Replays replay_layers(scenario::ScenarioRunner& runner,
                      const scenario::ScenarioReport& report,
                      const Repeat& rep) {
  const auto pending =
      static_cast<std::size_t>(std::lround(rep.pending_sum / rep.count()));
  const core::LinkId link = runner.ispn().links()[rep.busiest];
  Replays r;
  const auto mark = [&](const char* name) {
    r.marks.emplace_back(name, Clock::now());
  };
  mark("replay.event");
  r.event_ns = bench::event_ns(pending);
  mark("replay.timer_rearm");
  r.rearm_ns = bench::timer_rearm_ns(pending);
  mark("replay.enqdeq");
  r.enqdeq_ns = sched_replay(runner, report, rep);
  mark("replay.measure");
  r.measure_ns = bench::measure_ns(runner.ispn().measurement(link).config());
  mark("replay.open_close");
  r.open_close_us = bench::open_close_us(runner.spec());
  mark("replay.build_fabric");
  r.build_fabric_ms = bench::build_fabric_ms(runner.spec());
  mark("replay.rebuild_routes");
  r.rebuild_routes_us = 1e-3 * bench::median_ns(20, [&](std::uint64_t ops) {
                          for (std::uint64_t i = 0; i < ops; ++i) {
                            runner.net().rebuild_routes();
                          }
                        });
  mark("");
  return r;
}

/// The per-layer metrics of the traced repeat.
std::string layer_metrics(scenario::ScenarioRunner& runner,
                          const scenario::ScenarioReport& report,
                          const Repeat& rep, const Replays& r,
                          double measured_sim, double slice_p99_ms) {
  const Edge& e0 = rep.e0;
  const Edge& e1 = rep.e1;
  const double pkts = static_cast<double>(e1.delivered - e0.delivered);
  double tx = 0, drops = 0, depth = 0;
  for (std::size_t i = 0; i < e0.tx.size(); ++i) {
    tx += static_cast<double>(e1.tx[i] - e0.tx[i]);
    drops += static_cast<double>(e1.drops[i] - e0.drops[i]);
    depth += rep.depth_sum[i];
  }
  const double decisions = static_cast<double>(e1.decisions - e0.decisions);
  const double hops = ratio(
      report.route_cache_hits + report.route_cache_misses, report.delivered);
  const double events_per_pkt =
      ratio(static_cast<double>(e1.events - e0.events), pkts);
  const double ops_per_pkt = ratio(tx + drops, pkts);
  const double wall_ns_per_pkt = ratio(1e9 * rep.measured_wall(), pkts);
  const double predicted_share = ratio(
      report.classes[static_cast<std::size_t>(net::ServiceClass::kPredicted)]
          .delivered,
      report.delivered);
  // Where the time went: operations per delivered packet times the
  // replayed unit cost, over the wall time per delivered packet.  A
  // packet-hop makes one measurement call (guaranteed, datagram) or two
  // (predicted), a replayed pair is two; an admission decision is half a
  // replayed close+open.  `other` is the unclamped remainder.
  const double sim_share = ratio(events_per_pkt * r.event_ns, wall_ns_per_pkt);
  const double sched_share =
      ratio(ops_per_pkt * r.enqdeq_ns, wall_ns_per_pkt);
  const double core_share =
      ratio(hops * r.measure_ns * (1 + predicted_share) / 2 +
                ratio(decisions, pkts) * r.open_close_us * 1e3 / 2,
            wall_ns_per_pkt);
  const double fault_events = static_cast<double>(
      report.links_failed + report.links_repaired + report.nodes_crashed +
      report.nodes_recovered + report.brownouts + report.loss_episodes);

  Json out;
  out.num("sim.events_per_pkt", events_per_pkt)
      .num("sim.pending_mean", rep.pending_sum / rep.count())
      .num("sim.event_ns", r.event_ns)
      .num("sim.timer_rearm_ns", r.rearm_ns)
      .num("sim.rounds_per_sim_s",
           static_cast<double>(e1.rounds - e0.rounds) / measured_sim)
      .num("sched.ops_per_pkt", ops_per_pkt)
      .num("sched.queue_pkts_mean",
           depth / rep.count() / static_cast<double>(e0.tx.size()))
      .num("sched.drop_ratio", ratio(drops, tx + drops))
      .num("sched.enqdeq_ns", r.enqdeq_ns)
      .num("net.hops_per_pkt", hops)
      .num("net.route_cache_hit_ratio",
           ratio(report.route_cache_hits,
                 report.route_cache_hits + report.route_cache_misses))
      .num("net.sink_label_hit_ratio",
           ratio(report.sink_label_hits, report.sink_label_hits +
                                             report.sink_cache_hits +
                                             report.sink_cache_misses))
      .num("net.rebuild_routes_us", r.rebuild_routes_us)
      .num("net.mailbox_spills",
           static_cast<double>(runner.net().mailbox_spills()))
      .num("core.decisions_per_sim_s", decisions / measured_sim)
      .num("core.reject_ratio",
           ratio(report.flows_rejected, report.flows_offered))
      .num("core.open_close_us", r.open_close_us)
      .num("core.measure_ns", r.measure_ns)
      .num("traffic.police_drop_ratio",
           ratio(report.source_drops, report.generated))
      .num("traffic.retransmit_ratio",
           ratio(report.tcp_retransmits, report.tcp_segments))
      .num("traffic.mark_ratio", ratio(report.cc_marks, report.cc_mark_samples))
      .num("fault.events", fault_events)
      .num("fault.reroutes", static_cast<double>(report.flows_rerouted))
      .num("scenario.prepare_s", secs(rep.ctor_end, rep.run_setup.second))
      .num("scenario.finish_s", secs(rep.finish.first, rep.finish.second))
      .num("scenario.build_fabric_ms", r.build_fabric_ms)
      .num("scenario.audit_ms", 1e3 * secs(rep.audit.first, rep.audit.second))
      .num("scenario.slice_p99_ms", slice_p99_ms)
      .num("scenario.slices", rep.count())
      .num("attrib.sim_share", sim_share)
      .num("attrib.sched_share", sched_share)
      .num("attrib.core_share", core_share)
      .num("attrib.other_share", 1 - sim_share - sched_share - core_share);
  return out.done();
}

/// The traced repeat's spans as [name, start µs, end µs, parent index],
/// times from the first constructor call; every span's parent is "run".
std::string spans_json(const Repeat& rep, const Replays& r) {
  const Clock::time_point origin = rep.run_setup.first;
  std::string out = "[";
  const auto span = [&](const char* name, Clock::time_point a,
                        Clock::time_point b, int parent) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s[\"%s\",%.3f,%.3f,%d]",
                  out.size() > 1 ? "," : "", name, 1e6 * secs(origin, a),
                  1e6 * secs(origin, b), parent);
    out += buf;
  };
  span("run", origin, r.marks.back().second, -1);
  span("scenario.construct", rep.run_setup.first, rep.ctor_end, 0);
  span("scenario.prepare", rep.ctor_end, rep.run_setup.second, 0);
  span("sim.warm", rep.run_setup.second, rep.warm_end, 0);
  for (const Interval& i : rep.slices) {
    span("sim.advance", i.first, i.second, 0);
  }
  for (const Interval& i : rep.setups) {
    span("scenario.setup", i.first, i.second, 0);
  }
  span("scenario.audit", rep.audit.first, rep.audit.second, 0);
  span("scenario.finish", rep.finish.first, rep.finish.second, 0);
  for (std::size_t i = 0; i + 1 < r.marks.size(); ++i) {
    span(r.marks[i].first, r.marks[i].second, r.marks[i + 1].second, 0);
  }
  return out + "]";
}

int run(const Options& opt) {
  const bench::Workload& w = *opt.workload;
  scenario::ScenarioSpec spec = w.make();
  spec.seed = opt.seed;
  if (opt.shards >= 1 && spec.shards >= 1) spec.shards = opt.shards;
  const double warm = w.warm * opt.scale;
  const auto slices = static_cast<std::size_t>(
      std::max(10L, std::lround(bench::kSlices * opt.scale)));
  const double measured_sim = static_cast<double>(slices) * w.slice;
  spec.run_seconds = warm + measured_sim;

  Repeat rep;
  rep.run_setup.first = Clock::now();
  scenario::ScenarioRunner runner(spec);
  rep.ctor_end = Clock::now();
  runner.prepare();
  rep.run_setup.second = Clock::now();

  runner.advance(warm);
  rep.warm_end = Clock::now();
  rep.e0 = sample_edge(runner);

  // The measured window.  Untraced repeats read the clock around each
  // slice; the traced repeat also samples the event population and the
  // per-link queue depths at each slice end.
  const std::vector<core::LinkId>& links = runner.ispn().links();
  rep.depth_sum.assign(links.size(), 0.0);
  Clock::time_point start = rep.warm_end;
  for (std::size_t k = 0; k < slices; ++k) {
    runner.advance(warm + static_cast<double>(k + 1) * w.slice);
    rep.slices.emplace_back(start, Clock::now());
    if ((k + 1) % (slices / kSetups) == 0) {
      const Clock::time_point t0 = Clock::now();
      {
        scenario::ScenarioRunner extra(spec);
        extra.prepare();
        rep.setups.emplace_back(t0, Clock::now());
      }
      rep.interleaved_s += secs(rep.slices.back().second, Clock::now());
    }
    start = Clock::now();
    if (opt.trace) {
      rep.pending_sum += static_cast<double>(pending_events(runner));
      for (std::size_t i = 0; i < links.size(); ++i) {
        rep.depth_sum[i] += static_cast<double>(
            runner.ispn().scheduler(links[i]).packets());
      }
    }
  }
  rep.e1 = sample_edge(runner);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (rep.e1.tx[i] - rep.e0.tx[i] >
        rep.e1.tx[rep.busiest] - rep.e0.tx[rep.busiest]) {
      rep.busiest = i;
    }
  }
  rep.crossing = runner.ispn().flows_crossing(links[rep.busiest].first,
                                               links[rep.busiest].second);

  rep.audit = {start, start};
  if (opt.trace) {
    rep.audit.first = Clock::now();
    (void)runner.audit_now();
    rep.audit.second = Clock::now();
  }
  rep.finish.first = Clock::now();
  const scenario::ScenarioReport report = runner.finish();
  rep.finish.second = Clock::now();

  const std::uint64_t measured_delivered = rep.e1.delivered - rep.e0.delivered;
  std::vector<double> slice_ms;
  for (const Interval& i : rep.slices) {
    slice_ms.push_back(1e3 * secs(i.first, i.second));
  }
  std::sort(slice_ms.begin(), slice_ms.end());
  const double slice_p99_ms =  // nearest rank
      slice_ms[static_cast<std::size_t>(
                   std::ceil(0.99 * static_cast<double>(slices))) - 1];
  std::string setup_s = "[";
  for (const Interval& s : rep.setups) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", setup_s.size() > 1 ? "," : "",
                  secs(s.first, s.second));
    setup_s += buf;
  }
  const std::vector<std::string> failed =
      check(spec, report, measured_delivered);
  std::string fails = "[";
  for (const std::string& f : failed) {
    fails += (fails.size() > 1 ? ",\"" : "\"") + f + "\"";
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(sim_digest(report)));

  Json out;
  out.str("workload", w.name)
      .num("seed", static_cast<double>(opt.seed))
      .num("shards", spec.shards)
      .str("spec", spec.describe())
      .str("compiler", __VERSION__)
      .str("build_type", ISPN_BENCH_BUILD_TYPE)
      .raw("setup_s", setup_s + "]")
      .num("wall_s", secs(rep.run_setup.first, rep.finish.second) -
                         rep.interleaved_s)
      .num("measured_wall_s", rep.measured_wall())
      .num("measured_sim_s", measured_sim)
      .num("measured_delivered", static_cast<double>(measured_delivered))
      .num("slice_p99_ms", slice_p99_ms)
      .num("delivered", static_cast<double>(report.delivered))
      .num("events", static_cast<double>(report.events))
      .str("digest", digest)
      .raw("checks_failed", fails + "]");
  if (opt.trace) {
    const Replays r = replay_layers(runner, report, rep);
    out.raw("layers", layer_metrics(runner, report, rep, r, measured_sim,
                                    slice_p99_ms))
        .raw("spans", spans_json(rep, r));
  }
  out.num("peak_rss_kb", peak_rss_kb());
  std::printf("%s\n", out.done().c_str());
  return failed.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--reference") == 0) {
    std::printf("%.6f\n", reference_ms());
    return 0;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_ispn: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: bench_ispn WORKLOAD [--seed N] [--scale F] "
                 "[--shards N] [--trace]\n"
                 "       bench_ispn --reference\nworkloads:");
    for (const ispn::bench::Workload& w : ispn::bench::kWorkloads) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ispn: %s\n", e.what());
    return 2;
  }
}
