#include "sim/simulator.h"

#include <algorithm>
#include <limits>

namespace ispn::sim {

namespace {
constexpr Time kForever = std::numeric_limits<Time>::infinity();
constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
}  // namespace

bool Simulator::step() {
  return queue_.fire(kForever, /*inclusive=*/true, 1, clock_) == 1;
}

std::uint64_t Simulator::run_until(Time end) {
  const std::uint64_t n =
      queue_.fire(end, /*inclusive=*/true, kNoLimit, clock_);
  // Advance the clock to the horizon so subsequent after() calls are
  // relative to the end of the run.
  clock_.now = std::max(clock_.now, end);
  return n;
}

std::uint64_t Simulator::run_before(Time end) {
  return queue_.fire(end, /*inclusive=*/false, kNoLimit, clock_);
}

std::uint64_t Simulator::run() {
  return queue_.fire(kForever, /*inclusive=*/true, kNoLimit, clock_);
}

}  // namespace ispn::sim
