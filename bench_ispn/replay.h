// Per-layer unit costs for the traced pass.
//
// Each replay repeats one operation a workload performs per packet (or
// per flow) on a standalone object, through the public API of its src/
// layer, at the population the traced run measured.  A replay times a
// fixed number of operations five times and returns the median cost of
// one operation, so its value does not depend on a wall-clock budget.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/builder.h"
#include "core/measurement.h"
#include "scenario/fabric.h"
#include "sched/unified.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace ispn::bench {

/// Median over five timed passes of `body(ops)` (after one warm-up pass
/// of ops/10), in nanoseconds per operation.
template <typename Body>
double median_ns(std::uint64_t ops, Body&& body) {
  using Clock = std::chrono::steady_clock;
  body(std::max<std::uint64_t>(ops / 10, 1));
  std::array<double, 5> ns{};
  for (double& v : ns) {
    const auto t0 = Clock::now();
    body(ops);
    v = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[2];
}

/// sim: one fire plus one schedule on a Simulator holding `pending`
/// events (the event core's schedule/pop path).
inline double event_ns(std::size_t pending) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const std::size_t n = std::max<std::size_t>(pending, 1);
  const double gap = 1e-6;
  for (std::size_t i = 0; i < n; ++i) {
    sim.after(gap * static_cast<double>(i + 1), [&fired] { ++fired; });
  }
  const double horizon = gap * static_cast<double>(n);
  const double ns = median_ns(1'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      sim.step();
      sim.after(horizon, [&fired] { ++fired; });
    }
  });
  if (fired == 0) throw std::runtime_error("event replay fired nothing");
  return ns;
}

/// sim: one supersede re-arm of a pending Timer plus one timer firing
/// (which re-arms itself), over `pending` timers — the RTO / pacing /
/// port-completion pattern.
inline double timer_rearm_ns(std::size_t pending) {
  sim::Simulator sim;
  const std::size_t n = std::max<std::size_t>(pending, 2);
  const double horizon = 1e-6 * static_cast<double>(n);
  std::uint64_t fired = 0;
  std::vector<sim::Timer> timers;
  timers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    timers.emplace_back(sim, [&timers, &fired, horizon, i] {
      ++fired;
      timers[i].arm_after(horizon);
    });
    timers.back().arm_after(1e-6 * static_cast<double>(i + 1));
  }
  std::uint64_t k = 0;
  const double ns = median_ns(1'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i, ++k) {
      timers[(k * 7) % n].arm_after(horizon * (1.0 + 0.5 / (1 + k % 5)));
      sim.step();
    }
  });
  if (fired == 0) throw std::runtime_error("timer replay fired nothing");
  return ns;
}

/// One packet the scheduler replay offers: which flow, which class.
struct ReplayPacket {
  net::FlowId flow = 0;
  net::ServiceClass service = net::ServiceClass::kDatagram;
  std::uint8_t priority = 0;
};

/// sched: one enqueue plus one dequeue on a UnifiedScheduler built from
/// `config`, with the given registrations, held at `depth` packets.
/// Packets cycle through `mix`; the clock advances one packet time per
/// operation.
inline double enqdeq_ns(
    const sched::UnifiedScheduler::Config& config,
    const std::vector<std::pair<net::FlowId, sim::Rate>>& guaranteed,
    const std::vector<std::pair<net::FlowId, int>>& predicted,
    const std::vector<ReplayPacket>& mix, std::size_t depth) {
  if (mix.empty()) throw std::runtime_error("scheduler replay: empty mix");
  sched::UnifiedScheduler s(config);
  for (const auto& [flow, rate] : guaranteed) s.add_guaranteed(flow, rate);
  for (const auto& [flow, level] : predicted) {
    s.set_predicted_priority(flow, level);
  }
  const double tx = sim::paper::kPacketBits / config.link_rate;
  double now = 0;
  std::uint64_t seq = 0;
  const auto offer = [&] {
    const ReplayPacket& c = mix[seq % mix.size()];
    net::PacketPtr p = net::make_packet(c.flow, seq++, 0, 1, now);
    p->enqueued_at = now;
    p->service = c.service;
    p->priority = c.priority;
    s.enqueue(std::move(p), now);
  };
  depth = std::min(depth, config.capacity_pkts - 1);
  for (std::size_t i = 0; i < depth; ++i) offer();
  std::uint64_t out = 0;
  const double ns = median_ns(1'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += tx;
      offer();
      if (s.dequeue(now) != nullptr) ++out;
    }
  });
  if (out == 0) throw std::runtime_error("scheduler replay dequeued nothing");
  return ns;
}

/// core: one on_realtime_tx plus one on_class_wait on a LinkMeasurement
/// built from `config`, one packet time apart.
inline double measure_ns(const core::LinkMeasurement::Config& config) {
  core::LinkMeasurement m(config);
  const double gap = sim::paper::kPacketBits / config.link_rate;
  const int levels = config.num_predicted_classes + 1;
  double now = 0;
  std::uint64_t k = 0;
  return median_ns(1'000'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i, ++k) {
      now += gap;
      m.on_realtime_tx(sim::paper::kPacketBits, now);
      m.on_class_wait(static_cast<int>(k % static_cast<std::uint64_t>(levels)),
                      gap * static_cast<double>(k % 8), now);
    }
  });
}

/// A FlowSpec drawn the way the scenario runner draws one: long or short
/// origin-destination pair, then the spec's service mix.
inline core::FlowSpec draw_flow(const scenario::ScenarioSpec& spec,
                                const scenario::Fabric& fabric, sim::Rng& rng,
                                net::FlowId id) {
  core::FlowSpec fs;
  fs.flow = id;
  const bool want_long = rng.bernoulli(spec.long_flow_fraction);
  const auto& primary = want_long ? fabric.od_long : fabric.od_short;
  const auto& pool = primary.empty()
                         ? (want_long ? fabric.od_short : fabric.od_long)
                         : primary;
  const scenario::Fabric::OdPair od = pool[rng.below(pool.size())];
  fs.src = od.first;
  fs.dst = od.second;
  const sim::Rate avg_bps = spec.avg_rate_pps * spec.packet_bits;
  const double u = rng.uniform();
  if (u < spec.p_guaranteed) {
    fs.service = net::ServiceClass::kGuaranteed;
    fs.guaranteed = core::GuaranteedSpec{avg_bps * spec.peak_factor};
  } else if (u < spec.p_guaranteed + spec.p_predicted) {
    fs.service = net::ServiceClass::kPredicted;
    fs.predicted = core::PredictedSpec{
        {avg_bps, sim::paper::kBucketPackets * spec.packet_bits},
        spec.target_delay,
        spec.target_loss};
  } else {
    fs.service = net::ServiceClass::kDatagram;
  }
  return fs;
}

/// core: one close_flow of the oldest open flow plus one try_open_flow of
/// a freshly drawn one, on a fresh fabric of `spec` first filled to
/// spec.target_flows open flows (µs per close+open).
inline double open_close_us(const scenario::ScenarioSpec& spec) {
  core::IspnNetwork ispn(spec.network_config());
  const scenario::Fabric fabric = scenario::build_fabric(ispn, spec);
  sim::Rng rng(spec.seed, 0x0BE7C4);
  net::FlowId next = 0;
  std::deque<core::IspnNetwork::FlowHandle> open;
  const auto open_one = [&] {
    core::IspnNetwork::FlowHandle h =
        ispn.try_open_flow(draw_flow(spec, fabric, rng, next++));
    if (h.commitment.admitted) open.push_back(std::move(h));
  };
  const auto target = static_cast<std::size_t>(spec.target_flows);
  for (int tries = 0; open.size() < target && tries < 4 * spec.target_flows;
       ++tries) {
    open_one();
  }
  return 1e-3 * median_ns(2000, [&](std::uint64_t ops) {
           for (std::uint64_t i = 0; i < ops; ++i) {
             if (!open.empty()) {
               ispn.close_flow(open.front());
               open.pop_front();
             }
             open_one();
           }
         });
}

/// scenario: build_fabric() of `spec` into a fresh IspnNetwork (ms).
inline double build_fabric_ms(const scenario::ScenarioSpec& spec) {
  using Clock = std::chrono::steady_clock;
  std::array<double, 5> ms{};
  for (double& v : ms) {
    core::IspnNetwork ispn(spec.network_config());
    const auto t0 = Clock::now();
    const scenario::Fabric fabric = scenario::build_fabric(ispn, spec);
    v = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (fabric.od_long.empty() && fabric.od_short.empty()) {
      throw std::runtime_error("fabric replay built no OD pairs");
    }
  }
  std::sort(ms.begin(), ms.end());
  return ms[2];
}

}  // namespace ispn::bench
