#include "sim/shard.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

namespace ispn::sim {

namespace {

/// How long a waiter polls before it parks.  Long enough to cover the
/// serial step and the usual share imbalance without a futex round trip,
/// short enough that a waiting worker burns little CPU.
constexpr auto kSpinBudget = std::chrono::microseconds(50);

/// Returns the first value of `a` that satisfies `done`: polls for
/// kSpinBudget, yielding between polls so that a waiter sharing its CPU
/// hands it to the thread it waits for, then parks on std::atomic::wait.
/// The acquire loads pair with the writer's release.
template <typename T, typename Done>
T await(const std::atomic<T>& a, Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  do {
    const T v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  for (;;) {
    const T v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    a.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

std::uint64_t next_window(std::uint64_t current, Time t_min,
                          Duration window) {
  const double idx = std::floor(t_min / window);
  if (idx <= static_cast<double>(current)) return current;
  // floor() slop can only land us EARLY (an extra empty round), never past
  // t_min: if the quotient rounded up across the integer boundary, the
  // resulting window start m*window is still <= t_min because m*window
  // uses the same arithmetic grid the event times were scheduled on.
  constexpr double kMaxWindow = 9.0e18;
  const double clamped = std::min(idx, kMaxWindow);
  auto m = static_cast<std::uint64_t>(clamped);
  if (static_cast<Time>(m) * window > t_min && m > current) --m;
  return std::max(m, current);
}

ShardedEngine::ShardedEngine(Simulator& control, Duration window, int workers)
    : control_(control), window_(window), workers_requested_(workers) {
  assert(window_ > 0 && "lookahead window must be positive");
  assert(workers >= 1);
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

std::size_t ShardedEngine::add_domain(Simulator* domain,
                                      std::uint64_t weight) {
  assert(workers_.empty() && "domains must be added before running");
  domains_.push_back(Domain{domain, weight, {}});
  return domains_.size() - 1;
}

void ShardedEngine::add_inbox(std::size_t domain, Inbox* inbox) {
  assert(workers_.empty() && "inboxes must be added before running");
  domains_.at(domain).inbound.push_back(inbox);
}

Time ShardedEngine::min_next() const {
  Time t = kTimeInfinity;
  if (!control_.queue().empty()) t = control_.queue().next_time();
  for (const Domain& d : domains_) {
    if (!d.sim->queue().empty()) t = std::min(t, d.sim->queue().next_time());
  }
  return t;
}

int ShardedEngine::step_round(Time bound) {
  // 1. Control events up to the current barrier (admission decisions,
  //    failures, reroutes scheduled by earlier control work).  The
  //    mailboxes are already empty: only domain events push, and the
  //    drain phase follows every window, so mailboxes never need a term
  //    in min_next().
  const Time barrier = static_cast<Time>(m_) * window_;
  control_.run_until(barrier);

  // 2. Find the next non-empty window.
  const Time t = min_next();
  if (t >= kTimeInfinity) return 0;  // fully quiescent
  m_ = next_window(m_, t, window_);
  const Time start = static_cast<Time>(m_) * window_;
  assert(t >= start - 1e-12 && "sync skipped past a pending event");
  if (start > bound) return 2;  // beyond the caller's horizon
  control_.run_until(start);

  // 3. Execute the window on every domain, then drain its arrivals.
  if (workers_.empty()) start_workers();
  window_end_ = static_cast<Time>(m_ + 1) * window_;
  run_phase(Phase::kWindow);
  run_phase(Phase::kDrain);
  ++m_;
  ++rounds_;
  return 1;
}

void ShardedEngine::run() {
  while (step_round(kTimeInfinity) == 1) {
  }
}

void ShardedEngine::run_until(Time horizon) {
  // Execute FULL windows only: splitting a window across two calls would
  // interleave same-window cross-shard pushes differently and flip seq
  // tie-breaks, breaking bit-identical reproducibility of sliced runs.
  while (static_cast<Time>(m_) * window_ <= horizon &&
         step_round(horizon) == 1) {
  }
  // All control events at times <= horizon have fired (control runs to
  // every barrier, and everything control-visible is grid-quantized);
  // clamp its clock so callers can keep scheduling relative to `horizon`.
  control_.run_until(horizon);
}

bool ShardedEngine::idle() const {
  if (!control_.idle()) return false;
  for (const Domain& d : domains_) {
    if (!d.sim->idle()) return false;
  }
  return true;
}

std::uint64_t ShardedEngine::processed() const {
  std::uint64_t n = control_.processed();
  for (const Domain& d : domains_) n += d.sim->processed();
  return n;
}

void ShardedEngine::start_workers() {
  std::size_t w = std::clamp<std::size_t>(
      static_cast<std::size_t>(workers_requested_), 1,
      std::max<std::size_t>(domains_.size(), 1));
  if (const unsigned hw = std::thread::hardware_concurrency(); hw > 0) {
    w = std::min<std::size_t>(w, hw);
  }
  workers_.resize(w);

  // Longest-processing-time mapping: heaviest domain first (ties by
  // index), each onto the least-loaded worker (ties by worker index).
  std::vector<std::size_t> order(domains_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return domains_[a].weight > domains_[b].weight;
                   });
  std::vector<std::uint64_t> load(w, 0);
  for (const std::size_t d : order) {
    const auto k = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    workers_[k].domains.push_back(d);
    load[k] += domains_[d].weight;
  }
  for (Worker& wk : workers_) std::sort(wk.domains.begin(), wk.domains.end());

  try {
    helpers_.reserve(w - 1);
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < w; ++i) {
      helpers_.emplace_back([this, i, gen] { helper_main(i, gen); });
    }
  } catch (...) {
    stop_workers();
    workers_.clear();
    throw;
  }
}

void ShardedEngine::stop_workers() {
  if (helpers_.empty()) return;
  phase_ = Phase::kStop;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
}

void ShardedEngine::helper_main(std::size_t index, std::uint32_t seen) {
  for (;;) {
    // The caller bumps once per phase and waits for every helper before
    // the next bump, so no generation is ever missed.
    seen = await(generation_, [seen](std::uint32_t g) { return g != seen; });
    const Phase phase = phase_;
    if (phase == Phase::kStop) return;
    run_share(workers_[index], phase);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ShardedEngine::run_phase(Phase phase) {
  if (!helpers_.empty()) {
    phase_ = phase;
    pending_.store(static_cast<int>(helpers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  run_share(workers_.front(), phase);
  if (!helpers_.empty()) await(pending_, [](int p) { return p == 0; });
  rethrow_first_error();
}

void ShardedEngine::run_share(Worker& w, Phase phase) noexcept {
  std::size_t current = 0;
  try {
    for (const std::size_t d : w.domains) {
      current = d;
      const Domain& dom = domains_[d];
      if (phase == Phase::kWindow) {
        dom.sim->run_before(window_end_);
      } else {
        for (Inbox* in : dom.inbound) in->drain();
      }
    }
  } catch (...) {
    // A worker stops at its first throwing domain, as the one-worker loop
    // does; the caller rethrows once the phase is joined.
    w.error = std::current_exception();
    w.error_domain = current;
  }
}

void ShardedEngine::rethrow_first_error() {
  Worker* first = nullptr;
  for (Worker& w : workers_) {
    if (w.error && (first == nullptr || w.error_domain < first->error_domain)) {
      first = &w;
    }
  }
  if (first == nullptr) return;
  const std::exception_ptr e = first->error;
  for (Worker& w : workers_) w.error = nullptr;
  std::rethrow_exception(e);
}

}  // namespace ispn::sim
