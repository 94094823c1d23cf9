// util::LatencyHistogram: the fixed-size recorder behind the serving
// path's latency stats. Its percentiles must stay within the stated
// relative error of an exact `Samples` on the same data (heavy tail
// included), merging and weighted adds must be exact on counts, and
// concurrent writers must lose nothing (the 4-thread case runs under the
// TSAN CI job).
#include "util/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace rcloak::util {
namespace {

constexpr double kQuantiles[] = {0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100};

// A latency-like set: a log-normal-ish body around 0.05 ms plus a 5%
// Pareto tail reaching into the hundreds of milliseconds.
std::vector<double> HeavyTailedSet(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    if (rng.NextDouble() < 0.05) {
      values.push_back(1.0 / std::pow(1.0 - u, 1.0 / 1.2));  // Pareto(1.2)
    } else {
      values.push_back(0.05 * std::exp(1.5 * (u - 0.5)));
    }
  }
  return values;
}

void ExpectWithinError(const LatencyHistogram& histogram,
                       const Samples& exact) {
  for (const double q : kQuantiles) {
    const double want = exact.Percentile(q);
    EXPECT_NEAR(histogram.Percentile(q), want,
                want * LatencyHistogram::kRelativeError * (1 + 1e-9))
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, BucketBoundsHoldTheirValues) {
  // Contiguous buckets, each at most 1/16 wide relative to its floor.
  for (std::size_t i = 1; i + 1 < LatencyHistogram::kBuckets; ++i) {
    const double lo = LatencyHistogram::BucketLowerBound(i);
    const double hi = LatencyHistogram::BucketUpperBound(i);
    ASSERT_LT(lo, hi) << i;
    EXPECT_LE(hi / lo, 1.0 + 1.0 / LatencyHistogram::kSubBuckets + 1e-12)
        << i;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(std::nextafter(hi, 0.0)), i);
    EXPECT_EQ(hi, LatencyHistogram::BucketLowerBound(i + 1));
  }
  // Random in-range values land in the bucket whose bounds hold them.
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int octave = -20 + static_cast<int>(40 * rng.NextDouble());
    const double v = std::ldexp(1.0 + rng.NextDouble(), octave);
    if (v >= std::ldexp(1.0, 20)) continue;
    const std::size_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(b), v);
    EXPECT_LT(v, LatencyHistogram::BucketUpperBound(b));
  }
  // Underflow takes zero, negatives and NaN; overflow takes the rest.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::nan("")), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::ldexp(1.0, -21)), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::ldexp(1.0, -20)), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::ldexp(1.0, 20)),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e300),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogramTest, EmptyMatchesSamplesConventions) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_TRUE(histogram.empty());
  EXPECT_EQ(histogram.Mean(), 0.0);
  EXPECT_TRUE(std::isnan(histogram.Percentile(50)));
  EXPECT_TRUE(histogram.ToSamples().empty());
}

TEST(LatencyHistogramTest, PercentilesWithinStatedErrorOnHeavyTail) {
  const std::vector<double> values = HeavyTailedSet(42, 50000);
  LatencyHistogram histogram;
  Samples exact;
  for (const double v : values) {
    histogram.Add(v);
    exact.Add(v);
  }
  EXPECT_EQ(histogram.count(), values.size());
  EXPECT_NEAR(histogram.Mean(), exact.Mean(), exact.Mean() * 1e-9);
  ExpectWithinError(histogram, exact);
  // The extremes are exact: estimates clamp to the observed min/max.
  EXPECT_EQ(histogram.Percentile(0), exact.Percentile(0));
  EXPECT_EQ(histogram.Percentile(100), exact.Percentile(100));
}

TEST(LatencyHistogramTest, MergeEqualsOneHistogramOfEverything) {
  const std::vector<double> values = HeavyTailedSet(9, 20000);
  LatencyHistogram all, left, right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.Add(values[i]);
    (i % 3 == 0 ? left : right).Add(values[i]);
  }
  LatencyHistogram merged;
  merged.Merge(left);
  merged.Merge(right);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.Mean(), all.Mean(), all.Mean() * 1e-9);
  for (const double q : kQuantiles) {
    EXPECT_EQ(merged.Percentile(q), all.Percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, WeightedAddEqualsRepeatedAdds) {
  LatencyHistogram weighted, repeated;
  const double values[] = {0.003, 0.2, 0.2, 7.5, 1e-9, 3e7};
  const std::uint64_t counts[] = {5, 1, 300, 17, 2, 4};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    weighted.Add(values[i], counts[i]);
    for (std::uint64_t n = 0; n < counts[i]; ++n) repeated.Add(values[i]);
  }
  weighted.Add(1.0, 0);  // a zero count records nothing
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_NEAR(weighted.Mean(), repeated.Mean(), repeated.Mean() * 1e-12);
  for (const double q : kQuantiles) {
    EXPECT_EQ(weighted.Percentile(q), repeated.Percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, FourConcurrentWritersLoseNothing) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 50000;
  const std::vector<double> values =
      HeavyTailedSet(3, kThreads * kPerThread);
  LatencyHistogram shared;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        shared.Add(values[t * kPerThread + i]);
      }
    });
  }
  // A reader racing the writers sees a bounded, ordered view.
  const Samples racing = shared.ToSamples();
  EXPECT_LE(racing.count(), LatencyHistogram::kDefaultViewPoints);
  for (auto& writer : writers) writer.join();

  LatencyHistogram serial;
  for (const double v : values) serial.Add(v);
  EXPECT_EQ(shared.count(), values.size());
  EXPECT_NEAR(shared.Mean(), serial.Mean(), serial.Mean() * 1e-9);
  for (const double q : kQuantiles) {
    EXPECT_EQ(shared.Percentile(q), serial.Percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, SamplesViewIsBounded) {
  // Few observations: the view holds each one (as its estimate).
  LatencyHistogram small;
  Samples small_exact;
  for (const double v : HeavyTailedSet(5, 1000)) {
    small.Add(v);
    small_exact.Add(v);
  }
  const Samples small_view = small.ToSamples();
  EXPECT_EQ(small_view.count(), 1000u);
  for (const double q : kQuantiles) {
    const double want = small_exact.Percentile(q);
    EXPECT_NEAR(small_view.Percentile(q), want,
                want * LatencyHistogram::kRelativeError * (1 + 1e-9));
  }

  // Many observations: the view stops at its cap, memory does not grow.
  LatencyHistogram big;
  for (const double v : HeavyTailedSet(6, 200000)) big.Add(v);
  const Samples view = big.ToSamples();
  EXPECT_EQ(view.count(), LatencyHistogram::kDefaultViewPoints);
  EXPECT_EQ(big.ToSamples(16).count(), 16u);
  EXPECT_EQ(view.Percentile(0), big.Percentile(0));
  EXPECT_EQ(view.Percentile(100), big.Percentile(100));
  EXPECT_NEAR(view.Median(), big.Percentile(50),
              big.Percentile(50) * LatencyHistogram::kRelativeError);
}

}  // namespace
}  // namespace rcloak::util
