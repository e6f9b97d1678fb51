// End-to-end pipeline throughput: full source -> switch -> switch -> sink
// runs, in packets per wall-clock second.
//
// The sched and event microbenches measure the engine's inner loops in
// isolation; this bench measures what the paper's Table reproductions
// actually pay: every delivered packet crosses a source emission event, a
// host injection, a bottleneck queue (enqueue + dequeue under the chosen
// discipline), a transmit-complete event and the sink hand-off.  Rows
// sweep 3 disciplines x {16, 256, 4096} concurrently active flows — the
// flow count sets the simulator's pending-event population.
//
// Offered load is pinned at 90% of the bottleneck so the pipeline stays
// busy end to end without drowning in drops; per-flow rate scales down as
// flows scale up, keeping total offered (and hence the per-row event
// budget) comparable across pending sizes.  Results append to
// BENCH_e2e.json.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/fifo.h"
#include "sched/unified.h"
#include "sched/wfq.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "traffic/cbr_source.h"

namespace {

using namespace ispn;

/// Counts deliveries; packets return to their pool immediately.
class CountSink final : public net::FlowSink {
 public:
  void on_packet(net::PacketPtr, sim::Time) override { ++delivered; }
  std::uint64_t delivered = 0;
};

constexpr double kBottleneck = 1e8;  ///< bits/s: 100k pkt/s of 1000-bit pkts
constexpr double kLoad = 0.9;

/// One pipeline run: `flows` CBR sources inject at the left host, cross
/// the S1 -> S2 bottleneck under `make_scheduler`, and are counted at the
/// right host.  Returns delivered packets per wall second.
bench::MicroResult run_pipeline(int flows,
                                const net::SchedulerFactory& make_scheduler,
                                const std::function<void(sched::Scheduler&,
                                                         int)>& configure) {
  net::Network net;
  const auto topo = net::build_dumbbell(net, kBottleneck, make_scheduler);
  net::Host& src_host = net.host(topo.left_host);

  sched::Scheduler& bottleneck =
      net.port(topo.left_switch, topo.right_switch)->scheduler();
  if (configure) configure(bottleneck, flows);

  const double total_pps = kLoad * kBottleneck / sim::paper::kPacketBits;
  const double per_flow_pps = total_pps / flows;
  CountSink sink;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  sources.reserve(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    auto s = std::make_unique<traffic::CbrSource>(
        net.sim(), traffic::CbrSource::Config{per_flow_pps}, f,
        topo.left_host, topo.right_host,
        [&src_host](net::PacketPtr p) { src_host.inject(std::move(p)); });
    s->set_service(net::ServiceClass::kPredicted,
                   static_cast<std::uint8_t>(f % 2));
    // Stagger phases so emissions interleave instead of bursting.
    s->start(static_cast<double>(f) / total_pps);
    net.host(topo.right_host).register_sink(f, &sink);
    sources.push_back(std::move(s));
  }

  // Warm the pipeline (fills the queue, stabilises slab/pool capacities).
  sim::Time horizon = 0.5;
  net.sim().run_until(horizon);

  using Clock = std::chrono::steady_clock;
  const double budget = bench::micro_seconds();
  // Advance simulated time in slices big enough to amortise the clock
  // read: ~20k delivered packets each.
  const sim::Duration slice = 20000.0 / total_pps;
  const std::uint64_t base = sink.delivered;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    horizon += slice;
    net.sim().run_until(horizon);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < budget);
  return bench::MicroResult{sink.delivered - base, elapsed};
}

/// Sharded variant of the dumbbell pipeline: two per-switch domains with
/// their own clocks and pools, the bottleneck link handing packets across
/// through a mailbox, driven by the ShardedEngine at `shards` workers
/// (clamped to the 2 domains — the dumbbell measures handoff + barrier
/// overhead; fabric-level scaling lives in bench_scenario's sharded rows).
bench::MicroResult run_pipeline_sharded(
    int flows, int shards, const net::SchedulerFactory& make_scheduler,
    const std::function<void(sched::Scheduler&, int)>& configure) {
  net::Network net;
  net.enable_sharding(0.001);
  const auto topo = net::build_dumbbell(net, kBottleneck, make_scheduler);
  net::Host& src_host = net.host(topo.left_host);

  sched::Scheduler& bottleneck =
      net.port(topo.left_switch, topo.right_switch)->scheduler();
  if (configure) configure(bottleneck, flows);

  const double total_pps = kLoad * kBottleneck / sim::paper::kPacketBits;
  const double per_flow_pps = total_pps / flows;
  CountSink sink;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  sources.reserve(static_cast<std::size_t>(flows));
  sim::Simulator& src_clock = net.sim_for(topo.left_host);
  net::PacketPool& src_pool = net.pool_for(topo.left_host);
  for (int f = 0; f < flows; ++f) {
    // Pre-create the stats entry: the packet path is find-only when
    // sharded (a map insert from a domain thread would race).
    static_cast<void>(net.stats(f));
    auto s = std::make_unique<traffic::CbrSource>(
        src_clock, traffic::CbrSource::Config{per_flow_pps}, f,
        topo.left_host, topo.right_host,
        [&src_host](net::PacketPtr p) { src_host.inject(std::move(p)); });
    s->set_pool(&src_pool);
    s->set_service(net::ServiceClass::kPredicted,
                   static_cast<std::uint8_t>(f % 2));
    s->start(static_cast<double>(f) / total_pps);
    net.host(topo.right_host).register_sink(f, &sink);
    sources.push_back(std::move(s));
  }

  sim::ShardedEngine engine(net.sim(), net.link_latency(), shards);
  net.attach(engine, {{topo.left_host, topo.right_host}});

  sim::Time horizon = 0.5;
  engine.run_until(horizon);

  using Clock = std::chrono::steady_clock;
  const double budget = bench::micro_seconds();
  const sim::Duration slice = 20000.0 / total_pps;
  const std::uint64_t base = sink.delivered;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    horizon += slice;
    engine.run_until(horizon);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < budget);
  return bench::MicroResult{sink.delivered - base, elapsed};
}

}  // namespace

int main() {
  bench::header(
      "e2e: source -> switch -> switch -> sink pipeline throughput");
  bench::JsonReporter report("e2e");

  const net::SchedulerFactory fifo = [] {
    return std::make_unique<sched::FifoScheduler>(200);
  };
  const net::SchedulerFactory wfq = [] {
    return std::make_unique<sched::WfqScheduler>(
        sched::WfqScheduler::Config{kBottleneck, 200, 1.0});
  };
  const net::SchedulerFactory unified = [] {
    sched::UnifiedScheduler::Config cfg;
    cfg.link_rate = kBottleneck;
    cfg.capacity_pkts = 200;
    return std::make_unique<sched::UnifiedScheduler>(cfg);
  };
  const auto configure_unified = [](sched::Scheduler& s, int flows) {
    auto& u = static_cast<sched::UnifiedScheduler&>(s);
    for (int f = 0; f < flows; ++f) u.set_predicted_priority(f, f % 2);
  };

  for (int flows : {16, 256, 4096}) {
    report.add("fifo", "flows=" + std::to_string(flows),
               run_pipeline(flows, fifo, {}));
  }
  for (int flows : {16, 256, 4096}) {
    report.add("wfq", "flows=" + std::to_string(flows),
               run_pipeline(flows, wfq, {}));
  }
  for (int flows : {16, 256, 4096}) {
    report.add("unified", "flows=" + std::to_string(flows),
               run_pipeline(flows, unified, configure_unified));
  }
  // Sharded core on the dumbbell: per-worker-count rows isolate the
  // window-barrier + mailbox handoff cost at a fixed 1024-flow load.
  for (int shards : {1, 2, 4}) {
    report.add("unified sharded", "shards=" + std::to_string(shards),
               run_pipeline_sharded(1024, shards, unified,
                                    configure_unified));
  }

  const std::string path = report.write();
  std::printf("trajectory appended to %s\n", path.c_str());
  return 0;
}
