// Fixed log-bucket histogram: a streaming quantile summary with a relative
// error bound and an exact merge.
//
// Values in [2^-30, 2^10) fall into 16 linear sub-buckets per power-of-two
// octave; an underflow bucket holds [0, 2^-30) (and anything negative), an
// overflow bucket everything from 2^10 up.  The bucket index is the
// IEEE-754 exponent and the top four mantissa bits, so add() is one
// bit-extract and one increment.  quantile() returns the midpoint of the
// bucket holding the nearest-rank order statistic, clamped to the observed
// [min, max]: inside the bucketed range that is within x/32 of the exact
// order statistic x.  merge() adds the counts, so per-domain histograms
// combine into exactly the histogram of all their samples.
//
// The bucket array (kBuckets counts, about 5 KB) is allocated by reserve()
// or, failing that, by the first add(); a caller on a packet path calls
// reserve() before the first packet.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ispn::stats {

class LogHistogram {
 public:
  static constexpr int kSubBits = 4;    ///< 2^kSubBits sub-buckets per octave
  static constexpr int kMinExp = -30;   ///< lowest octave [2^-30, 2^-29)
  static constexpr int kMaxExp = 10;    ///< values from 2^10 overflow
  /// Underflow, (kMaxExp - kMinExp) octaves of sub-buckets, overflow.
  static constexpr std::size_t kBuckets =
      (static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits) + 2;

  /// Allocates the bucket array (no-op once allocated).
  void reserve() {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
  }

  void add(double x) {
    if (counts_.empty()) [[unlikely]] reserve();
    ++counts_[bucket(x)];
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  /// Adds `other`'s counts: the result is the histogram of both sample
  /// sets.  An unallocated `other` adds nothing.
  void merge(const LogHistogram& other);

  /// Nearest-rank q-quantile, q in [0, 1] (rank max(1, ceil(q n))): the
  /// midpoint of the bucket holding that rank, clamped to [min, max].  0
  /// when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Bucket of `x`: the sign, biased exponent and top kSubBits mantissa
  /// bits read as one signed integer are monotone in x, so one shift and
  /// one clamp index the array.
  [[nodiscard]] static std::size_t bucket(double x) {
    constexpr std::int64_t kFirst = std::int64_t{1023 + kMinExp} << kSubBits;
    const std::int64_t key = std::bit_cast<std::int64_t>(x) >> (52 - kSubBits);
    const std::int64_t i = key - kFirst + 1;
    if (i < 0) return 0;
    return i >= static_cast<std::int64_t>(kBuckets)
               ? kBuckets - 1
               : static_cast<std::size_t>(i);
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  std::vector<std::uint64_t> counts_;  ///< empty until reserve() or add()
  std::uint64_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ispn::stats
