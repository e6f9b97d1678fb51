// Event-core throughput: schedule/pop/cancel cost of the simulation kernel.
//
// The event loop runs under every statistic in the paper, so events/sec is
// the ceiling on scenario scale.  Steady-state "wheel" workloads keep a
// fixed number of pending events and measure one fire + one (re)schedule
// per cycle, across the capture sizes the simulator actually uses:
//
//   small   8-byte capture  — the dominant fixed-shape events (port
//                             transmit-complete, source next-arrival)
//   medium  32-byte capture — multi-pointer closures (tracer, measurement)
//   large   64-byte capture — cold-path escape hatch (heap-boxed)
//
// timer_rearm measures the persistent-timer path that ports and sources
// use (one slab slot for life, re-arm = key insert).
//
// Results are appended to BENCH_event_core.json (see bench/common.h).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace {

using namespace ispn;

/// Steady-state wheel: `pending` events in flight; each cycle fires the
/// earliest and schedules one more `horizon` seconds out.
template <typename MakeAction>
void wheel(bench::JsonReporter& report, const std::string& name, int pending,
           MakeAction make_action) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const double horizon = 1e-3 * pending;
  for (int i = 0; i < pending; ++i) {
    sim.after(1e-3 * (i + 1), make_action(fired));
  }
  const auto r = bench::time_loop([&] {
    sim.step();
    sim.after(horizon, make_action(fired));
  });
  if (fired == 0) std::printf("(!) no events fired in %s\n", name.c_str());
  report.add(name, "pending=" + std::to_string(pending), r);
}

/// Persistent-timer wheel: the port/source hot path.  `pending` timers
/// each re-arm themselves `horizon` out when they fire — no slot churn,
/// no action reconstruction; one step() fires exactly one timer.
void timer_wheel(bench::JsonReporter& report, int pending) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::Timer> timers;
  timers.reserve(static_cast<std::size_t>(pending));
  const double horizon = 1e-3 * pending;
  for (int i = 0; i < pending; ++i) {
    timers.emplace_back(sim, [&timers, &fired, horizon, i] {
      ++fired;
      timers[static_cast<std::size_t>(i)].arm_after(horizon);
    });
    timers.back().arm_after(1e-3 * (i + 1));
  }
  const auto r = bench::time_loop([&] { sim.step(); });
  if (fired == 0) std::printf("(!) no timers fired\n");
  report.add("timer_rearm", "pending=" + std::to_string(pending), r);
}

/// Cancellation wheel: each cycle schedules two events, cancels one, fires
/// one — the port retry-timer pattern.
void cancel_wheel(bench::JsonReporter& report, int pending) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const double horizon = 1e-3 * pending;
  for (int i = 0; i < pending; ++i) {
    sim.after(1e-3 * (i + 1), [&fired] { ++fired; });
  }
  const auto r = bench::time_loop([&] {
    const sim::EventId doomed =
        sim.after(horizon * 0.5, [&fired] { ++fired; });
    sim.after(horizon, [&fired] { ++fired; });
    sim.cancel(doomed);
    sim.step();
  });
  if (fired == 0) std::printf("(!) no events fired in cancel wheel\n");
  report.add("cancel_wheel", "pending=" + std::to_string(pending), r);
}

}  // namespace

int main() {
  bench::header("event_core: kernel schedule/pop/cancel throughput");
  bench::JsonReporter report("event_core");

  const auto small = [](std::uint64_t& fired) {
    return [&fired] { ++fired; };
  };
  for (int pending : {16, 256, 4096}) {
    wheel(report, "wheel_small", pending, small);
  }
  for (int pending : {16, 256, 4096}) {
    wheel(report, "wheel_medium", pending, [](std::uint64_t& fired) {
      struct Capture {
        std::uint64_t* a;
        std::uint64_t* b;
        std::uint64_t* c;
        std::uint64_t* d;
      } cap{&fired, &fired, &fired, &fired};
      return [cap] { ++*cap.a; };
    });
  }
  for (int pending : {16, 256, 4096}) {
    wheel(report, "wheel_large", pending, [](std::uint64_t& fired) {
      struct Capture {
        std::uint64_t* a;
        char pad[56];
      } cap{&fired, {}};
      return [cap] { ++*cap.a; };
    });
  }
  for (int pending : {256, 4096}) timer_wheel(report, pending);
  cancel_wheel(report, 256);
  cancel_wheel(report, 4096);

  const std::string path = report.write();
  std::printf("trajectory appended to %s\n", path.c_str());
  return 0;
}
