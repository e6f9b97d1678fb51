// Engine-level tests of the sharded core (sim/shard.h) on synthetic
// domains, below the scenario layer.
//
// - Stress: one heavy domain plus light ones exchanging packets through
//   LinkMailboxes for more than 10 000 lookahead windows, with control
//   events injecting work at barriers; every domain's event log must be
//   identical at 1, 2, 3 and 4 workers.  Under -DISPN_SANITIZE=thread
//   this is the race detector's densest view of the phase hand-off, the
//   parallel drain and cross-domain pool releases.
// - Per-destination drain: equal-time arrivals from several inbound
//   mailboxes fire in mailbox-creation order (not domain order), after a
//   same-time event the domain scheduled earlier and before one the
//   control phase schedules at that barrier — matched against a reference
//   built here.
// - Exceptions: a throwing domain event surfaces from run_until as the
//   same exception at every worker count.
// - Mapping weights: on the fan-in tree the benchmark runs (depth 3,
//   width 4) the 16 leaf-to-root pairs weigh the root, mid and leaf
//   switches 16, 4 and 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/handoff.h"
#include "net/packet_pool.h"
#include "scenario/runner.h"
#include "sim/shard.h"

namespace ispn {
namespace {

constexpr sim::Duration kWindow = 0.001;

/// One domain-local event, as logged.
struct LogEntry {
  sim::Time time;
  std::uint64_t tag;
  bool operator==(const LogEntry&) const = default;
};

using Log = std::vector<LogEntry>;

std::uint64_t packet_tag(const net::Packet& p) {
  return (static_cast<std::uint64_t>(p.flow) << 48) | (p.seq << 8) | p.hops;
}

/// The engine never starts more threads than the hardware reports, so on
/// a host with fewer CPUs a larger request runs with fewer workers.
/// Checks that `got` workers ran for `requested`, or records the clamp in
/// `clamped` so the test can end skipped instead of passing silently.
void check_workers(int requested, int got, std::string& clamped) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && static_cast<unsigned>(requested) > hw) {
    clamped += " " + std::to_string(requested) + "->" + std::to_string(got);
    return;
  }
  EXPECT_EQ(got, requested);
}

/// Start of window m, computed exactly as the engine computes barriers.
sim::Time barrier(std::uint64_t m) {
  return static_cast<sim::Time>(m) * kWindow;
}

// --- stress -----------------------------------------------------------------

constexpr int kDomains = 6;
constexpr int kHeavy = 0;
constexpr sim::Time kStop = 10.5;  // ~10 500 windows of traffic
constexpr std::uint64_t kBusyTag = 0xBull << 60;
constexpr std::uint64_t kControlTag = 0xCull << 60;

struct SynthDomain;

/// Logs every arrival, then forwards the packet to another domain after
/// a short packet-dependent delay, for up to four hops.
class Relay final : public net::Node {
 public:
  explicit Relay(SynthDomain& home);
  void receive(net::PacketPtr p) override;

 private:
  SynthDomain& home_;
};

struct SynthDomain {
  explicit SynthDomain(int i)
      : index(i), lcg(0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1)) {
    pool.enable_concurrent_returns();
  }

  int index;
  sim::Simulator sim;
  net::PacketPool pool;
  Log log;
  Relay relay{*this};
  std::vector<net::LinkMailbox*> out =
      std::vector<net::LinkMailbox*>(kDomains, nullptr);
  std::uint64_t lcg;
  std::uint64_t next_seq = 0;

  std::uint64_t draw() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  }

  /// Sends `p` to a domain other than this one, drawn from the domain's
  /// own stream.
  void send(net::PacketPtr p) {
    auto to = static_cast<int>(draw() % (kDomains - 1));
    if (to >= index) ++to;
    out[static_cast<std::size_t>(to)]->push(std::move(p), sim.now());
  }

  void emit(std::uint64_t kind) {
    net::PacketPtr p = pool.acquire();
    p->flow = index;
    p->seq = next_seq++;
    log.push_back({sim.now(), kind | packet_tag(*p)});
    send(std::move(p));
  }

  /// Periodic source on a coarse shared grid, so arrivals from different
  /// domains often land at one destination at the same instant.
  void generate() {
    emit(0);
    const sim::Time next =
        sim.now() + 0.5e-3 * static_cast<double>(1 + draw() % 4);
    if (next < kStop) sim.at(next, [this] { generate(); });
  }

  /// The heavy domain's extra local work: a dense stream of events that
  /// burn a little CPU each, and keep every window non-empty.
  void busy(std::uint64_t k) {
    std::uint64_t x = k;
    for (int i = 0; i < 100; ++i) x = x * 2862933555777941757ull + 3037000493ull;
    log.push_back({sim.now(), kBusyTag | (k << 16) | (x & 0xFFFF)});
    if (sim.now() + 40e-6 < kStop) sim.after(40e-6, [this, k] { busy(k + 1); });
  }
};

Relay::Relay(SynthDomain& home) : Node(home.index, "relay"), home_(home) {}

void Relay::receive(net::PacketPtr p) {
  SynthDomain& d = home_;
  d.log.push_back({d.sim.now(), packet_tag(*p)});
  if (++p->hops >= 4) return;  // released here, mostly into a foreign pool
  const sim::Duration proc = 1e-5 * static_cast<double>(p->seq % 7);
  net::PacketPool* pool = p.get_deleter().pool;
  net::Packet* raw = p.release();
  d.sim.after(proc, [&d, raw, pool] {
    d.send(net::PacketPtr(raw, net::PacketDeleter{pool}));
  });
}

/// The synthetic fabric.  Members are destroyed in reverse order, so the
/// mailboxes return undelivered packets while the pools still exist.
struct World {
  sim::Simulator control;
  std::vector<std::unique_ptr<SynthDomain>> domains;
  std::vector<std::unique_ptr<net::LinkMailbox>> mailboxes;
  Log control_log;

  /// Every 100 windows a control event hands one domain extra work at the
  /// barrier, as admission and fault handling do.
  void inject(std::uint64_t m) {
    control.at(barrier(m), [this, m] {
      control_log.push_back({control.now(), m});
      SynthDomain& d = *domains[(m / 100) % kDomains];
      d.sim.at(control.now(), [&d] { d.emit(kControlTag); });
      if (barrier(m + 100) < kStop) inject(m + 100);
    });
  }
};

struct StressResult {
  std::vector<Log> logs;  // per domain, then the control log
  std::uint64_t rounds = 0;
  std::uint64_t spills = 0;
  int workers = 0;  // threads the engine actually ran
};

StressResult run_stress(int workers) {
  World w;
  for (int i = 0; i < kDomains; ++i) {
    w.domains.push_back(std::make_unique<SynthDomain>(i));
  }
  sim::ShardedEngine engine(w.control, kWindow, workers);
  for (const auto& d : w.domains) {
    engine.add_domain(&d->sim, d->index == kHeavy ? 8 : 1);
  }
  // Full mesh, created destination-descending so creation order differs
  // from domain order.  Tiny rings: bursts take the spill path too.
  for (int src = 0; src < kDomains; ++src) {
    for (int dst = kDomains - 1; dst >= 0; --dst) {
      if (dst == src) continue;
      SynthDomain& to = *w.domains[static_cast<std::size_t>(dst)];
      w.mailboxes.push_back(
          std::make_unique<net::LinkMailbox>(kWindow, to.sim, to.relay, 2));
      w.domains[static_cast<std::size_t>(src)]->out[static_cast<std::size_t>(
          dst)] = w.mailboxes.back().get();
      engine.add_inbox(static_cast<std::size_t>(dst), w.mailboxes.back().get());
    }
  }
  for (const auto& d : w.domains) {
    SynthDomain* dp = d.get();
    dp->sim.at(0.0, [dp] { dp->generate(); });
  }
  SynthDomain* heavy = w.domains[kHeavy].get();
  heavy->sim.at(0.0, [heavy] { heavy->busy(0); });
  w.inject(100);

  // Sliced driving, as the benches do, then drain to quiescence.
  for (int k = 1; k <= 22; ++k) engine.run_until(0.5 * k);
  engine.run();

  StressResult out;
  for (const auto& d : w.domains) out.logs.push_back(std::move(d->log));
  out.logs.push_back(std::move(w.control_log));
  out.rounds = engine.rounds();
  out.workers = engine.workers();
  for (const auto& mb : w.mailboxes) {
    EXPECT_EQ(mb->in_transit(), 0u);
    out.spills += mb->spills();
  }
  return out;
}

TEST(ShardEngine, StressLogsIdenticalAtOneToFourWorkers) {
  const StressResult ref = run_stress(1);
  EXPECT_GE(ref.rounds, 10000u);
  EXPECT_GT(ref.spills, 0u) << "no burst ever overflowed a ring";
  ASSERT_EQ(ref.logs.size(), static_cast<std::size_t>(kDomains + 1));
  EXPECT_GT(ref.logs[kHeavy].size(), 3 * ref.logs[1].size())
      << "the heavy domain is not heavy";
  for (int d = 0; d < kDomains; ++d) {
    EXPECT_GT(ref.logs[static_cast<std::size_t>(d)].size(), 20000u) << d;
  }
  EXPECT_GT(ref.logs.back().size(), 100u) << "no control injection ran";

  std::string clamped;
  for (const int workers : {2, 3, 4}) {
    const StressResult got = run_stress(workers);
    check_workers(workers, got.workers, clamped);
    EXPECT_EQ(got.rounds, ref.rounds) << workers << " workers";
    EXPECT_EQ(got.spills, ref.spills) << workers << " workers";
    ASSERT_EQ(got.logs.size(), ref.logs.size());
    for (std::size_t d = 0; d < ref.logs.size(); ++d) {
      const Log& a = ref.logs[d];
      const Log& b = got.logs[d];
      ASSERT_EQ(a.size(), b.size()) << workers << " workers, log " << d;
      const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
      EXPECT_TRUE(diff.first == a.end())
          << workers << " workers, log " << d << ": first divergence at entry "
          << (diff.first - a.begin());
    }
  }
  if (!clamped.empty()) GTEST_SKIP() << "host clamped workers:" << clamped;
}

// --- per-destination drain order --------------------------------------------

/// Logs every packet it receives.
class LoggingNode final : public net::Node {
 public:
  LoggingNode(const sim::Simulator& clock, Log& log)
      : Node(0, "logger"), clock_(clock), log_(log) {}

  void receive(net::PacketPtr p) override {
    log_.push_back({clock_.now(), packet_tag(*p)});
  }

 private:
  const sim::Simulator& clock_;
  Log& log_;
};

TEST(ShardEngine, EqualTimeArrivalsFireInMailboxCreationOrder) {
  constexpr std::size_t kDst = 3;
  constexpr std::uint64_t kLocal = 0xA;
  constexpr std::uint64_t kFromControl = 0xC;
  // Creation order of the three inbound mailboxes of domain 3.
  const int sources[] = {2, 0, 1};

  std::string clamped;
  for (const int workers : {1, 2, 3, 4}) {
    sim::Simulator control;
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<std::unique_ptr<net::PacketPool>> pools;
    for (int i = 0; i < 4; ++i) {
      sims.push_back(std::make_unique<sim::Simulator>());
      pools.push_back(std::make_unique<net::PacketPool>());
      pools.back()->enable_concurrent_returns();
    }
    Log log;
    LoggingNode dst(*sims[kDst], log);
    std::vector<std::unique_ptr<net::LinkMailbox>> boxes;

    sim::ShardedEngine engine(control, kWindow, workers);
    for (const auto& s : sims) engine.add_domain(s.get());
    Log expected;
    // The destination's own event at the arrival instant, scheduled first.
    sims[kDst]->at(barrier(1), [&] { log.push_back({barrier(1), kLocal}); });
    expected.push_back({barrier(1), kLocal});
    for (const int src : sources) {
      boxes.push_back(
          std::make_unique<net::LinkMailbox>(kWindow, *sims[kDst], dst, 64));
      net::LinkMailbox* box = boxes.back().get();
      engine.add_inbox(kDst, box);
      net::PacketPool* pool = pools[static_cast<std::size_t>(src)].get();
      // Two packets per source, pushed at t = 0 to arrive at t = W.
      sims[static_cast<std::size_t>(src)]->at(0.0, [box, pool, src] {
        for (std::uint64_t k = 0; k < 2; ++k) {
          box->push(net::make_packet(*pool, src, k, src, 3, 0.0), 0.0);
        }
      });
      for (std::uint64_t k = 0; k < 2; ++k) {
        net::Packet p;
        p.flow = src;
        p.seq = k;
        expected.push_back({barrier(1), packet_tag(p)});
      }
    }
    // The control phase at barrier W schedules a same-time event into the
    // destination: it follows the arrivals drained before that phase.
    control.at(barrier(1), [&] {
      sims[kDst]->at(barrier(1),
                     [&] { log.push_back({barrier(1), kFromControl}); });
    });
    expected.push_back({barrier(1), kFromControl});

    engine.run();
    EXPECT_EQ(log, expected) << workers << " workers";
    check_workers(workers, engine.workers(), clamped);
  }
  if (!clamped.empty()) GTEST_SKIP() << "host clamped workers:" << clamped;
}

// --- exceptions ---------------------------------------------------------------

/// A domain that ticks every 0.3 ms until `stop`.
void tick(sim::Simulator& s, sim::Time stop) {
  if (s.now() + 0.3e-3 < stop) s.after(0.3e-3, [&s, stop] { tick(s, stop); });
}

std::string first_failure(int workers, std::string& clamped) {
  sim::Simulator control;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  for (int i = 0; i < 4; ++i) sims.push_back(std::make_unique<sim::Simulator>());
  sim::ShardedEngine engine(control, kWindow, workers);
  for (const auto& s : sims) {
    engine.add_domain(s.get());
    sim::Simulator* sp = s.get();
    sp->at(0.0, [sp] { tick(*sp, 1.0); });
  }
  // Domains 1 and 2 both throw inside window [12 ms, 13 ms); at one worker
  // domain 1 runs first, so its exception is the one every count reports.
  sims[2]->at(0.0121, [] { throw std::runtime_error("domain 2"); });
  sims[1]->at(0.0125, [] { throw std::runtime_error("domain 1"); });
  sims[3]->at(0.0200, [] { throw std::runtime_error("domain 3"); });
  std::string what = "no exception";
  try {
    engine.run_until(1.0);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  check_workers(workers, engine.workers(), clamped);
  return what;
}

TEST(ShardEngine, DomainExceptionSurfacesFromRunUntilAtAnyWorkerCount) {
  std::string clamped;
  for (const int workers : {1, 2, 4}) {
    EXPECT_EQ(first_failure(workers, clamped), "domain 1")
        << workers << " workers";
  }
  if (!clamped.empty()) GTEST_SKIP() << "host clamped workers:" << clamped;
}

// --- mapping weights ----------------------------------------------------------

TEST(ShardEngine, DomainWeightsCountTheFanInTreeRoutes) {
  scenario::ScenarioSpec spec = scenario::preset("fan_in");
  scenario::apply_scale(spec, "small");
  spec.tree_depth = 3;
  spec.tree_width = 4;
  spec.shards = 1;
  scenario::ScenarioRunner runner(spec);
  runner.prepare();
  const sim::ShardedEngine& engine = *runner.engine();

  std::vector<std::uint64_t> weights;
  for (std::size_t d = 0; d < runner.net().num_domains(); ++d) {
    weights.push_back(engine.weight(d));
  }
  std::sort(weights.begin(), weights.end());
  std::vector<std::uint64_t> expected(16, 1);
  expected.insert(expected.end(), 4, 4);
  expected.push_back(16);
  EXPECT_EQ(weights, expected);
}

}  // namespace
}  // namespace ispn
