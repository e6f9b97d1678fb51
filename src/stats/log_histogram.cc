#include "stats/log_histogram.h"

#include <algorithm>
#include <cmath>

namespace ispn::stats {

namespace {

/// Midpoint of bucket `i` (underflow: half its width; overflow: none, so
/// the caller's clamp to the observed max stands in).
double midpoint(std::size_t i) {
  if (i == 0) return std::ldexp(1.0, LogHistogram::kMinExp - 1);
  if (i == LogHistogram::kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  constexpr std::size_t kSub = std::size_t{1} << LogHistogram::kSubBits;
  const auto octave = static_cast<int>((i - 1) / kSub);
  const auto sub = static_cast<double>((i - 1) % kSub);
  return std::ldexp(1.0 + (sub + 0.5) / static_cast<double>(kSub),
                    LogHistogram::kMinExp + octave);
}

}  // namespace

void LogHistogram::merge(const LogHistogram& other) {
  if (other.counts_.empty()) return;
  reserve();
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LogHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return std::clamp(midpoint(i), min_, max_);
  }
  return max_;
}

}  // namespace ispn::stats
