#include "stats/log_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/random.h"

namespace ispn::stats {
namespace {

constexpr std::size_t kSub = std::size_t{1} << LogHistogram::kSubBits;

/// First bucket of the octave [2^e, 2^(e+1)).
std::size_t octave_start(int e) {
  return 1 + static_cast<std::size_t>(e - LogHistogram::kMinExp) * kSub;
}

/// Nearest-rank order statistic x_(ceil(q n)) of `sorted`.
double exact(const std::vector<double>& sorted, double q) {
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[rank - 1];
}

TEST(LogHistogram, LayoutCoversTheBucketedRangePlusTwo) {
  EXPECT_EQ(LogHistogram::kBuckets, 642u);
  EXPECT_EQ(LogHistogram::bucket(std::ldexp(1.0, LogHistogram::kMinExp)), 1u);
  EXPECT_EQ(LogHistogram::bucket(std::ldexp(1.0, LogHistogram::kMaxExp)),
            LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, PowersOfTwoOpenAnOctave) {
  for (int e = LogHistogram::kMinExp; e < LogHistogram::kMaxExp; ++e) {
    const double x = std::ldexp(1.0, e);
    EXPECT_EQ(LogHistogram::bucket(x), octave_start(e)) << "2^" << e;
    // The largest double below 2^e closes the previous octave.
    EXPECT_EQ(LogHistogram::bucket(std::nextafter(x, 0.0)),
              octave_start(e) - 1)
        << "2^" << e;
  }
}

TEST(LogHistogram, SubBucketBoundaries) {
  for (const int e : {LogHistogram::kMinExp, -10, 0, 9}) {
    for (std::size_t j = 1; j < kSub; ++j) {
      const double edge =
          std::ldexp(1.0 + static_cast<double>(j) / kSub, e);
      EXPECT_EQ(LogHistogram::bucket(edge), octave_start(e) + j)
          << "2^" << e << " sub " << j;
      EXPECT_EQ(LogHistogram::bucket(std::nextafter(edge, 0.0)),
                octave_start(e) + j - 1)
          << "2^" << e << " sub " << j;
    }
  }
}

TEST(LogHistogram, UnderflowAndOverflowBuckets) {
  const std::size_t last = LogHistogram::kBuckets - 1;
  EXPECT_EQ(LogHistogram::bucket(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket(-0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket(-1.0), 0u);
  EXPECT_EQ(LogHistogram::bucket(std::numeric_limits<double>::denorm_min()),
            0u);
  EXPECT_EQ(LogHistogram::bucket(1e-12), 0u);
  EXPECT_EQ(LogHistogram::bucket(2000.0), last);
  EXPECT_EQ(LogHistogram::bucket(1e300), last);
  EXPECT_EQ(LogHistogram::bucket(std::numeric_limits<double>::infinity()),
            last);
}

TEST(LogHistogram, QuantilesWithinOneThirtySecondOfExact) {
  // Log-uniform over the whole bucketed range, so every octave is hit.
  sim::Rng rng(11);
  LogHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    const double x = std::exp2(rng.uniform(LogHistogram::kMinExp,
                                           LogHistogram::kMaxExp));
    h.add(x);
    samples.push_back(x);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.count(), samples.size());
  for (const double q : {0.0, 1e-5, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                         0.99, 0.999, 0.9999, 1.0}) {
    const double truth = exact(samples, q);
    EXPECT_LE(std::abs(h.quantile(q) - truth), truth / 32) << "q=" << q;
  }
}

TEST(LogHistogram, MergeEqualsHistogramOfConcatenation) {
  sim::Rng rng(5);
  LogHistogram a, b, both;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.exponential(0.002);
    (i % 3 == 0 ? a : b).add(x);
    both.add(x);
  }
  b.add(0.0);
  both.add(0.0);
  LogHistogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged, both);
  EXPECT_EQ(merged.count(), both.count());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), both.quantile(q)) << "q=" << q;
  }
  // An unallocated histogram adds nothing.
  merged.merge(LogHistogram{});
  EXPECT_EQ(merged, both);
}

TEST(LogHistogram, EmptyReadsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.999), 0.0);
  EXPECT_EQ(h, LogHistogram{});
  h.reserve();  // allocated but empty still reads zero
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogram, ZeroUnderflowAndOverflowValues) {
  LogHistogram zeros;
  for (int i = 0; i < 10; ++i) zeros.add(0.0);
  EXPECT_EQ(zeros.quantile(0.5), 0.0);
  EXPECT_EQ(zeros.quantile(1.0), 0.0);

  LogHistogram tiny;
  tiny.add(1e-12);
  tiny.add(3e-12);
  EXPECT_GE(tiny.quantile(0.5), 1e-12);
  EXPECT_LE(tiny.quantile(0.5), 3e-12);

  LogHistogram huge;
  huge.add(0.5);
  huge.add(2000.0);
  huge.add(5000.0);
  EXPECT_EQ(huge.quantile(1.0), 5000.0);  // overflow reads the maximum
  EXPECT_EQ(huge.quantile(0.9), 5000.0);
  EXPECT_LE(std::abs(huge.quantile(0.1) - 0.5), 0.5 / 32);
}

TEST(LogHistogram, ClampsToObservedRange) {
  // 1.0 opens its bucket, whose midpoint 1.03125 would exceed the max.
  LogHistogram one;
  one.add(1.0);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_EQ(one.quantile(q), 1.0) << "q=" << q;
  }
  // A sample just under a bucket's upper edge: the midpoint would be
  // below the minimum.
  LogHistogram high;
  const double x = std::nextafter(std::ldexp(1.0, -3), 0.0);
  high.add(x);
  high.add(x);
  EXPECT_EQ(high.quantile(0.5), x);

  sim::Rng rng(3);
  LogHistogram h;
  double lo = std::numeric_limits<double>::infinity(), hi = -lo;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.exponential(0.01);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    h.add(v);
    for (const double q : {0.001, 0.5, 0.999, 1.0}) {
      ASSERT_GE(h.quantile(q), lo) << "i=" << i << " q=" << q;
      ASSERT_LE(h.quantile(q), hi) << "i=" << i << " q=" << q;
    }
  }
  // q outside [0, 1] reads as the nearest end.
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
}

}  // namespace
}  // namespace ispn::stats
