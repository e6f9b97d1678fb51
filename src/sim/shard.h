// Sharded conservative-parallel simulation coordinator.
//
// The network is partitioned into domains — one Simulator (clock + event
// queue) per switch plus its attached hosts — and a ShardedEngine drives
// all domains forward in lookahead windows of width W, the minimum
// propagation latency of any cross-domain link:
//
//   round m:
//     1. window (parallel): every worker runs its domains through
//        [m*W, (m+1)*W) with Simulator::run_before — strictly less than
//        the barrier, so a packet that finishes transmitting at t in the
//        window arrives cross-domain at t + L >= (m+1)*W, i.e. never
//        inside the window being executed.  That is the whole correctness
//        argument, and it is CSZ's per-hop isolation made operational: the
//        propagation latency is a hard lower bound on cross-domain
//        influence.
//     2. drain (parallel): every worker drains the inbound mailboxes of
//        its own domains into their event queues, in mailbox-creation
//        order (arrivals produced during window m land at times
//        >= (m+1)*W);
//     3. serial step (the calling thread alone): run the control
//        simulator up to the barrier (admission, failures, reroutes —
//        anything that touches global state executes here, never
//        concurrently with domain work), then advance to the next
//        non-empty window (next_window jumps over empty ones).
//
// Determinism: the domain decomposition and the window grid are functions
// of the topology spec alone, never of the worker count.  Event-queue
// sequence numbers are per domain, and each domain's queue receives its
// drained arrivals in the same (mailbox-creation, push) order whichever
// worker drains it, so the sequence of events each domain executes is
// identical whether 1 or N threads execute the rounds.  Shard-count
// variation is byte-identical by construction, which the golden-trace
// suite and test_shard_diff verify.
//
// Threads and barriers: the calling thread is worker 0 and runs its own
// share; W-1 helper threads run the rest.  A phase is released by bumping
// an atomic generation (release) and joined on an atomic pending count
// (acquire), so everything a domain wrote in one phase happens-before
// every read in the next.  Waiters poll, yielding between polls, for a
// fixed budget, then park on std::atomic::wait.  Domains map to workers
// by a longest-processing-time assignment over static per-domain weights
// (heaviest first, each to the least-loaded worker), computed once when
// the workers start — a pure function of the weights and the worker
// count.
//
// Why barrier-per-window and not null-message credits: see README
// ("Parallel simulation").  Short version: the fabrics are dense (every
// switch within two hops of most others), so per-link credit messages
// approach all-to-all chatter with the same effective horizon the barrier
// gives; the barrier is trivially deterministic and keeps the hot path
// allocation-free.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
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

/// A cross-domain inbound queue.  Filled by other domains during a window;
/// drained into its destination domain's event queue after the window by
/// the worker that owns that domain.
class Inbox {
 public:
  virtual std::size_t drain() = 0;

 protected:
  ~Inbox() = default;
};

/// Drives one control simulator plus N domain simulators through
/// barrier-synchronized lookahead windows.  Domain work is spread over the
/// calling thread plus a lazily started helper pool; workers == 1 runs
/// everything inline on the calling thread (bit-identical by design, and
/// the configuration the allocation soak runs under).
class ShardedEngine {
 public:
  /// `control` executes global events (admission, failures, stop) at
  /// window barriers; `window` is the lookahead (cross-domain link
  /// latency); `workers` is the thread budget (clamped to [1, #domains]
  /// and to the hardware concurrency when the workers start).
  ShardedEngine(Simulator& control, Duration window, int workers);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers a domain clock and returns its index.  `weight` is its
  /// static load estimate for the worker mapping.  All domains must be
  /// added before the first window.
  std::size_t add_domain(Simulator* domain, std::uint64_t weight = 1);

  /// Registers an inbound mailbox of `domain`.  A domain's inboxes drain
  /// in registration order, which must be a function of the topology.
  void add_inbox(std::size_t domain, Inbox* inbox);

  /// Runs rounds until every domain, the control simulator and the
  /// mailboxes are all drained.
  void run();

  /// Runs full windows while they start at or before `horizon`, then
  /// clamps the control clock to the horizon.  Monotone and re-entrant:
  /// benches call this repeatedly with growing horizons.  An exception
  /// thrown by a domain event surfaces here once every worker has
  /// finished the phase (the lowest-indexed throwing domain's, as at one
  /// worker).
  void run_until(Time horizon);

  [[nodiscard]] bool idle() const;

  /// Events processed across control + all domains.
  [[nodiscard]] std::uint64_t processed() const;

  /// The mapping weight `domain` was registered with.
  [[nodiscard]] std::uint64_t weight(std::size_t domain) const {
    return domains_.at(domain).weight;
  }

  [[nodiscard]] Duration window() const { return window_; }
  [[nodiscard]] int workers() const {
    return workers_.empty() ? 1 : static_cast<int>(workers_.size());
  }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  enum class Phase { kWindow, kDrain, kStop };

  struct Domain {
    Simulator* sim;
    std::uint64_t weight;
    std::vector<Inbox*> inbound;  // registration order
  };

  /// One worker's share: its domains (ascending index) and the first
  /// exception its last phase raised.
  struct Worker {
    std::vector<std::size_t> domains;
    std::exception_ptr error;
    std::size_t error_domain = 0;
  };

  /// One synchronization round.  Returns 0 when fully quiescent, 1 after
  /// executing a window, 2 when the next window starts after `bound`
  /// (nothing executed).
  int step_round(Time bound);

  /// Earliest pending event time across control + domains, or
  /// kTimeInfinity when none.
  [[nodiscard]] Time min_next() const;

  /// Maps domains onto workers and starts the helper threads (once).
  void start_workers();
  void stop_workers();
  void helper_main(std::size_t index, std::uint32_t seen);

  /// Runs `phase` on every worker (the caller as worker 0) and returns
  /// once all have finished it; rethrows a worker's exception.
  void run_phase(Phase phase);
  void run_share(Worker& w, Phase phase) noexcept;
  void rethrow_first_error();

  Simulator& control_;
  Duration window_;
  int workers_requested_;
  std::vector<Domain> domains_;
  std::uint64_t m_ = 0;        ///< next window index to consider
  std::uint64_t rounds_ = 0;   ///< windows executed (diagnostic)

  std::vector<Worker> workers_;       // empty until the first window
  std::vector<std::thread> helpers_;  // workers 1..W-1
  // Phase hand-off: the caller writes phase_ and window_end_, then bumps
  // generation_ (release); each helper acquires the bump, runs its share
  // and decrements pending_ (acq_rel); the caller acquires pending_ == 0.
  Phase phase_ = Phase::kWindow;
  Time window_end_ = 0;
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<int> pending_{0};
};

}  // namespace ispn::sim
