// Zero-allocation steady-state assertions for the engine hot paths.
//
// The tentpole claim of the slab/pool/indexed refactor is that once the
// slab capacities have warmed up, pushing packets and events through the
// core performs no heap allocation at all.  This binary links alloc_hook.cc
// (counting overrides of global operator new/delete) and asserts the
// counter does not move across hundreds of thousands of steady-state
// cycles of the FIFO and WFQ micro-bench workloads, the unified scheduler,
// and the event core.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "alloc_hook.h"
#include "net/host.h"
#include "net/packet_pool.h"
#include "sched/fifo.h"
#include "sched/unified.h"
#include "sched/wfq.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "traffic/tcp.h"

namespace ispn {
namespace {

net::PacketPtr make(net::PacketPool& pool, net::FlowId flow,
                    std::uint64_t seq, double now, net::ServiceClass service,
                    std::uint8_t priority = 0) {
  auto p = net::make_packet(pool, flow, seq, 0, 1, now);
  p->enqueued_at = now;
  p->service = service;
  p->priority = priority;
  return p;
}

/// Runs `cycles` enqueue+dequeue cycles against `sched` and returns the
/// number of heap allocations performed by the block.
template <typename Sched>
std::uint64_t measure_cycles(Sched& sched, net::PacketPool& pool, int flows,
                             net::ServiceClass service, int cycles,
                             std::uint64_t* seq, double* now) {
  const std::uint64_t before = testhook::allocation_count();
  for (int i = 0; i < cycles; ++i) {
    *now += 1e-3;
    sched.enqueue(make(pool, static_cast<net::FlowId>(*seq % flows), *seq,
                       *now, service, static_cast<std::uint8_t>(*seq % 2)),
                  *now);
    ++*seq;
    auto p = sched.dequeue(*now);
  }
  return testhook::allocation_count() - before;
}

TEST(AllocSteadyState, HookCountsAllocations) {
  const std::uint64_t before = testhook::allocation_count();
  auto p = std::make_unique<int>(7);
  EXPECT_GE(testhook::allocation_count(), before + 1);
}

TEST(AllocSteadyState, FifoCycleIsAllocationFree) {
  net::PacketPool pool;
  sched::FifoScheduler fifo(100000);
  std::uint64_t seq = 0;
  double now = 0;
  // Warmup: pool chunks, ring growth.
  measure_cycles(fifo, pool, 10, net::ServiceClass::kPredicted, 20000, &seq,
                 &now);
  const std::uint64_t allocs = measure_cycles(
      fifo, pool, 10, net::ServiceClass::kPredicted, 200000, &seq, &now);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocSteadyState, WfqCycleIsAllocationFree) {
  net::PacketPool pool;
  sched::WfqScheduler wfq(sched::WfqScheduler::Config{1e6, 100000, 1e4});
  std::uint64_t seq = 0;
  double now = 0;
  measure_cycles(wfq, pool, 100, net::ServiceClass::kPredicted, 20000, &seq,
                 &now);
  const std::uint64_t allocs = measure_cycles(
      wfq, pool, 100, net::ServiceClass::kPredicted, 200000, &seq, &now);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocSteadyState, UnifiedMixedCycleIsAllocationFree) {
  net::PacketPool pool;
  sched::UnifiedScheduler sched(
      sched::UnifiedScheduler::Config{1e6, 100000, 2, 1.0 / 4096.0, true});
  for (int f = 0; f < 3; ++f) sched.add_guaranteed(f, 1.7e5);
  for (int f = 3; f < 10; ++f) sched.set_predicted_priority(f, f % 2);
  std::uint64_t seq = 0;
  double now = 0;
  auto cycle = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      now += 1e-3;
      const int f = static_cast<int>(seq % 11);
      net::PacketPtr p;
      if (f < 3) {
        p = make(pool, f, seq, now, net::ServiceClass::kGuaranteed);
      } else if (f < 10) {
        p = make(pool, f, seq, now, net::ServiceClass::kPredicted,
                 static_cast<std::uint8_t>(f % 2));
      } else {
        p = make(pool, f, seq, now, net::ServiceClass::kDatagram);
      }
      ++seq;
      sched.enqueue(std::move(p), now);
      auto out = sched.dequeue(now);
    }
    return testhook::allocation_count() - before;
  };
  cycle(20000);  // warmup
  EXPECT_EQ(cycle(200000), 0u);
}

// The drop path must be as allocation-free as the accept path: victims
// travel scheduler -> DropSink -> PacketPool without any vector or box in
// between.  Tiny capacities force a drop on (almost) every enqueue.
TEST(AllocSteadyState, DropPathIsAllocationFree) {
  net::PacketPool pool;
  sched::FifoScheduler fifo(8);
  sched::WfqScheduler wfq(sched::WfqScheduler::Config{1e6, 8, 1e4});
  std::uint64_t fifo_drops = 0;
  std::uint64_t wfq_drops = 0;
  // Installed once, as a port would; counts victims and lets them return
  // to the pool when the sink returns.
  fifo.set_drop_sink(
      [&fifo_drops](net::PacketPtr, sim::Time) { ++fifo_drops; });
  wfq.set_drop_sink([&wfq_drops](net::PacketPtr, sim::Time) { ++wfq_drops; });
  std::uint64_t seq = 0;
  double now = 0;
  auto flood = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      now += 1e-3;
      // Two arrivals per dequeue: half the offered load must drop.
      fifo.enqueue(make(pool, 0, seq, now, net::ServiceClass::kDatagram),
                   now);
      wfq.enqueue(make(pool, static_cast<net::FlowId>(seq % 4), seq, now,
                       net::ServiceClass::kPredicted),
                  now);
      fifo.enqueue(make(pool, 0, seq, now, net::ServiceClass::kDatagram),
                   now);
      wfq.enqueue(make(pool, static_cast<net::FlowId>((seq + 1) % 4), seq,
                       now, net::ServiceClass::kPredicted),
                  now);
      ++seq;
      auto a = fifo.dequeue(now);
      auto b = wfq.dequeue(now);
    }
    return testhook::allocation_count() - before;
  };
  flood(20000);  // warmup
  const std::uint64_t drops_before = fifo_drops + wfq_drops;
  EXPECT_EQ(flood(200000), 0u);
  EXPECT_GT(fifo_drops + wfq_drops, drops_before);  // drop path exercised
}

// The delivery hot path (host flow -> sink lookup) used to walk a
// std::map per packet; it is now a direct-mapped cache in front of a flat
// open-addressing SlotMap table, and must stay allocation-free under
// sparse, scattered flow ids.
TEST(AllocSteadyState, HostDeliveryPathIsAllocationFree) {
  class CountingSink final : public net::FlowSink {
   public:
    void on_packet(net::PacketPtr, sim::Time) override { ++count; }
    std::uint64_t count = 0;
  };
  sim::Simulator sim;
  net::Host host(sim, 0, "h0");
  std::vector<net::FlowId> ids;
  std::vector<std::unique_ptr<CountingSink>> sinks;
  for (int i = 0; i < 512; ++i) {
    ids.push_back(static_cast<net::FlowId>(i * 131 + 7));  // sparse ids
    sinks.push_back(std::make_unique<CountingSink>());
    host.register_sink(ids.back(), sinks.back().get());
  }
  net::PacketPool pool;
  std::uint64_t seq = 0;
  double now = 0;
  auto cycle = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      now += 1e-6;
      host.receive(make(pool, ids[seq % ids.size()], seq, now,
                        net::ServiceClass::kDatagram));
      ++seq;
    }
    return testhook::allocation_count() - before;
  };
  cycle(20000);  // warmup
  EXPECT_EQ(cycle(200000), 0u);
  std::uint64_t total = 0;
  for (const auto& s : sinks) total += s->count;
  EXPECT_EQ(total, 220000u);
  EXPECT_EQ(host.sink_cache_hits() + host.sink_cache_misses(), 220000u);
}

TEST(AllocSteadyState, EventWheelIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 256; ++i) {
    sim.after(1e-3 * (i + 1), [&fired] { ++fired; });
  }
  auto wheel = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      sim.step();
      sim.after(0.256, [&fired] { ++fired; });
    }
    return testhook::allocation_count() - before;
  };
  wheel(20000);  // warmup
  EXPECT_EQ(wheel(200000), 0u);
  EXPECT_GT(fired, 0u);
}

// Persistent-timer re-arm is the new hot path for ports and sources: one
// slab slot per timer for life, re-arming a pure key insert.  Both the
// self-re-arming pattern (sources, transmit-complete) and the
// supersede-while-pending pattern (port retry, TCP RTO restart) must be
// allocation-free.
TEST(AllocSteadyState, TimerRearmPathIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::Timer> timers;
  timers.reserve(256);
  for (int i = 0; i < 256; ++i) {
    timers.emplace_back(sim, [&timers, &fired, i] {
      ++fired;
      timers[static_cast<std::size_t>(i)].arm_after(0.256);
    });
    timers.back().arm_after(1e-3 * (i + 1));
  }
  auto cycle = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) sim.step();
    return testhook::allocation_count() - before;
  };
  cycle(20000);  // warmup
  const std::size_t slots = sim.queue().slab_slots();
  EXPECT_EQ(cycle(200000), 0u);
  EXPECT_EQ(sim.queue().slab_slots(), slots);  // no churn either
  EXPECT_GT(fired, 0u);
}

TEST(AllocSteadyState, TimerSupersedePathIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::Timer> timers;
  timers.reserve(128);
  for (int i = 0; i < 128; ++i) {
    timers.emplace_back(sim, [&timers, &fired, i] {
      ++fired;
      timers[static_cast<std::size_t>(i)].arm_after(0.128);
    });
    timers.back().arm_after(1e-3 * (i + 1));
  }
  auto cycle = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      // The retry-timer dance: drag an armed timer earlier twice, then
      // let the engine fire whatever is due.
      const std::size_t t = static_cast<std::size_t>(i) % timers.size();
      timers[t].arm_after(0.128);
      timers[t].arm_after(0.064);
      sim.step();
    }
    return testhook::allocation_count() - before;
  };
  // Longer warmup: every supersede leaves a stale key behind until its
  // tick passes, and that population's high-water mark (which sizes the
  // wheel's node pool) takes a while to peak.
  cycle(60000);
  EXPECT_EQ(cycle(200000), 0u);
  EXPECT_GT(fired, 0u);
}

// The bbr stack's paced send path: every segment rides the persistent
// pace timer (re-arm, pool packet, emit) instead of a window blast, and
// the ACK clock feeds the rate filters.  After pool/slab warmup a long
// steady-state stretch — pacing, RTT/bandwidth sampling, feedback
// bookkeeping — must not allocate at all.
TEST(AllocSteadyState, BbrPacedSendPathIsAllocationFree) {
  sim::Simulator sim;
  net::PacketPool pool;
  traffic::TcpSource::Config config;
  config.cc = traffic::CcAlgo::kBbr;
  config.binary_feedback = true;

  // Fake network: cumulative ACKs at a finite drain rate (2 segments per
  // 0.5 ms tick), so the bandwidth estimate converges instead of
  // compounding against an infinitely fast mirror.
  std::uint64_t emitted_top = 0;  // highest seq emitted + 1
  std::uint64_t acked = 0;
  auto src = std::make_unique<traffic::TcpSource>(
      sim, config, 7, 0, 1,
      [&emitted_top](net::PacketPtr p) {
        emitted_top = std::max(emitted_top, p->seq + 1);
      },
      nullptr);
  src->set_pool(&pool);

  std::vector<sim::Timer> net_timer;
  net_timer.reserve(1);
  net_timer.emplace_back(sim, [&] {
    const std::uint64_t can = std::min(emitted_top, acked + 2);
    if (can > acked) {
      acked = can;
      auto ack = net::make_packet(pool, 7, 0, 1, 0, sim.now(),
                                  config.ack_bits);
      ack->is_ack = true;
      ack->ack_seq = acked;
      ack->cong_echo = (acked % 64 == 0);  // occasional feedback step
      src->on_packet(std::move(ack), sim.now());
    }
    net_timer[0].arm_after(5e-4);
  });
  net_timer[0].arm_after(5e-4);
  src->start(0.0);

  auto cycle = [&](double seconds) {
    const std::uint64_t before = testhook::allocation_count();
    sim.run_until(sim.now() + seconds);
    return testhook::allocation_count() - before;
  };
  cycle(5.0);  // warmup: pool chunks, event slab, bbr startup + drain
  const std::uint64_t sent_before = src->sent_segments();
  EXPECT_EQ(cycle(10.0), 0u);
  EXPECT_EQ(src->algo(), traffic::CcAlgo::kBbr);
  EXPECT_GT(src->sent_segments(), sent_before + 10000u)
      << "the paced path was never actually exercised";
  EXPECT_GT(src->delivered(), 10000u);
}

TEST(AllocSteadyState, EventCancelPathIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    sim.after(1e-3 * (i + 1), [&fired] { ++fired; });
  }
  auto wheel = [&](int cycles) {
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < cycles; ++i) {
      const sim::EventId doomed = sim.after(0.032, [&fired] { ++fired; });
      sim.after(0.064, [&fired] { ++fired; });
      sim.cancel(doomed);
      sim.step();
    }
    return testhook::allocation_count() - before;
  };
  wheel(20000);  // warmup
  EXPECT_EQ(wheel(200000), 0u);
}

}  // namespace
}  // namespace ispn
