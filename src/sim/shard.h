// Sharded conservative-parallel simulation coordinator.
//
// The network is partitioned into domains — one Simulator (clock + event
// queue) per switch plus its attached hosts — and a ShardedEngine drives
// all domains forward in lookahead windows of width W, the minimum
// propagation latency of any cross-domain link:
//
//   round m:
//     1. drain every cross-domain mailbox into its destination domain
//        (arrivals produced during window m-1 land at times >= m*W);
//     2. run the single-threaded control simulator up to the barrier m*W
//        (admission, failures, reroutes — anything that touches global
//        state executes here, between windows, never concurrently with
//        domain work);
//     3. advance to the next non-empty window (next_window jumps over
//        empty ones);
//     4. run every domain in parallel through [m*W, (m+1)*W) with
//        Simulator::run_before — strictly less than the barrier, so a
//        packet that finishes transmitting at t in the window arrives
//        cross-domain at t + L >= (m+1)*W, i.e. never inside the window
//        being executed.  That is the whole correctness argument, and it
//        is CSZ's per-hop isolation made operational: the propagation
//        latency is a hard lower bound on cross-domain influence.
//
// Determinism: the domain decomposition and the window grid are functions
// of the topology spec alone, never of the worker count, so the sequence
// of events each domain executes — and the (time, mailbox-creation-order)
// merge of cross-domain arrivals — is identical whether 1 or N threads
// execute the rounds.  Shard-count ∈ {1,2,4} is byte-identical by
// construction, which the golden-trace suite and test_shard_diff verify.
//
// Why barrier-per-window and not null-message credits: see README
// ("Parallel simulation").  Short version: the fabrics are dense (every
// switch within two hops of most others), so per-link credit messages
// approach all-to-all chatter with the same effective horizon the barrier
// gives; the barrier costs two condvar sweeps per window, is trivially
// deterministic, and keeps the hot path allocation-free.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "sim/units.h"

namespace ispn::sim {

/// Window advance: given the current window index and the earliest pending
/// event time across all domains, returns the index of the window to
/// execute next — the one containing `t_min`, skipping empty windows.
/// Never goes backwards, and never returns a window whose start lies after
/// `t_min` (events may not be skipped).  Floating-point floor slop can land
/// one window early (costing one empty round), never late — pinned by
/// unit test.
[[nodiscard]] std::uint64_t next_window(std::uint64_t current, Time t_min,
                                        Duration window);

/// Drives one control simulator plus N domain simulators through
/// barrier-synchronized lookahead windows.  Domain work is spread over a
/// lazily started worker pool; workers == 1 runs everything inline on the
/// calling thread (bit-identical by design, and the configuration the
/// allocation soak runs under).
class ShardedEngine {
 public:
  /// `control` executes global events (admission, failures, stop) at
  /// window barriers; `window` is the lookahead (cross-domain link
  /// latency); `workers` is the thread budget (clamped to [1, #domains]
  /// at run time).
  ShardedEngine(Simulator& control, Duration window, int workers);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers a domain clock.  All domains must be added before run().
  void add_domain(Simulator* domain);

  /// Installs the mailbox-drain hook, called at the top of every round
  /// (single-threaded; domains quiescent).
  void set_exchange(std::function<void()> fn) { exchange_ = std::move(fn); }

  /// Runs rounds until every domain, the control simulator and the
  /// mailboxes are all drained.
  void run();

  /// Runs full windows while they start at or before `horizon`, then
  /// clamps the control clock to the horizon.  Monotone and re-entrant:
  /// benches call this repeatedly with growing horizons.
  void run_until(Time horizon);

  [[nodiscard]] bool idle() const;

  /// Events processed across control + all domains.
  [[nodiscard]] std::uint64_t processed() const;

  [[nodiscard]] Duration window() const { return window_; }
  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  /// One synchronization round.  Returns 0 when fully quiescent, 1 after
  /// executing a window, 2 when the next window starts after `bound`
  /// (nothing executed).
  int step_round(Time bound);

  /// Earliest pending event time across control + domains, or
  /// kTimeInfinity when none.
  [[nodiscard]] Time min_next() const;

  void run_parallel(Time window_end);
  void start_workers(int n);
  void stop_workers();
  void worker_main(int index);

  Simulator& control_;
  Duration window_;
  int workers_requested_;
  int workers_ = 1;
  std::vector<Simulator*> domains_;
  std::function<void()> exchange_;
  std::uint64_t m_ = 0;        ///< next window index to consider
  std::uint64_t rounds_ = 0;   ///< windows executed (diagnostic)

  // Worker pool: generation-counted barrier.  Workers wake on a new
  // generation, run their domain stripe through window_end_, and the last
  // one to finish signals done.  The mutex handoff gives the control
  // phase happens-before visibility into everything domain threads wrote
  // during the window, and vice versa.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  Time window_end_ = 0;
  bool shutdown_ = false;
};

}  // namespace ispn::sim
