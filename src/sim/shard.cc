#include "sim/shard.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ispn::sim {

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

void ShardedEngine::add_domain(Simulator* domain) {
  assert(threads_.empty() && "domains must be added before running");
  domains_.push_back(domain);
}

Time ShardedEngine::min_next() const {
  Time t = kTimeInfinity;
  if (!control_.queue().empty()) t = control_.queue().next_time();
  for (const Simulator* d : domains_) {
    if (!d->queue().empty()) t = std::min(t, d->queue().next_time());
  }
  return t;
}

int ShardedEngine::step_round(Time bound) {
  // 1. Drain mailboxes: arrivals produced in the previous window are
  //    scheduled into their destination domains before anyone inspects
  //    queue minima.  Mailboxes therefore never need a term in min_next().
  if (exchange_) exchange_();

  // 2. Control events up to the current barrier (admission decisions,
  //    failures, reroutes scheduled by earlier control work).
  const Time barrier = static_cast<Time>(m_) * window_;
  control_.run_until(barrier);

  // 3. Find the next non-empty window.
  const Time t = min_next();
  if (t >= kTimeInfinity) return 0;  // fully quiescent
  m_ = next_window(m_, t, window_);
  const Time start = static_cast<Time>(m_) * window_;
  assert(t >= start - 1e-12 && "sync skipped past a pending event");
  if (start > bound) return 2;  // beyond the caller's horizon
  control_.run_until(start);

  // 4. Execute the window on every domain in parallel.
  run_parallel(static_cast<Time>(m_ + 1) * window_);
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
  for (const Simulator* d : domains_) {
    if (!d->idle()) return false;
  }
  return true;
}

std::uint64_t ShardedEngine::processed() const {
  std::uint64_t n = control_.processed();
  for (const Simulator* d : domains_) n += d->processed();
  return n;
}

void ShardedEngine::run_parallel(Time window_end) {
  const int n = static_cast<int>(domains_.size());
  if (n == 0) return;
  const int w = std::min(workers_requested_, n);
  if (w <= 1) {
    // Single-worker mode: run inline, no threads at all.  This is the
    // deterministic-by-construction reference the multi-worker path must
    // match, and what the allocation soak exercises.
    for (Simulator* d : domains_) d->run_before(window_end);
    return;
  }
  start_workers(w);
  {
    std::unique_lock<std::mutex> lock(mu_);
    window_end_ = window_end;
    pending_ = workers_;
    ++generation_;
    cv_work_.notify_all();
    cv_done_.wait(lock, [&] { return pending_ == 0; });
  }
}

void ShardedEngine::start_workers(int n) {
  if (!threads_.empty()) return;
  workers_ = n;
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void ShardedEngine::stop_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_work_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedEngine::worker_main(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    Time end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      end = window_end_;
    }
    // Static domain stripe: domain d belongs to worker d % W, a pure
    // function of the domain index, so the assignment never depends on
    // scheduling luck.
    const int n = static_cast<int>(domains_.size());
    for (int d = index; d < n; d += workers_) {
      domains_[static_cast<std::size_t>(d)]->run_before(end);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace ispn::sim
