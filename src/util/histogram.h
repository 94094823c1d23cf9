// Fixed-size latency histogram for the serving path.
//
// A runtime recorder must not grow with traffic: one `Samples` entry per
// update is ~2 MB/s at fleet rates and sits outside every memory budget.
// LatencyHistogram keeps log-linear buckets instead — 16 linear
// sub-buckets per power of two over [2^-20, 2^20) (about 1e-6 to 1e6 in
// whatever unit the caller records, milliseconds throughout the server),
// plus one underflow bucket (zero, negatives and NaN land there) and one
// overflow bucket. 642 counters, ~5 KB, fixed at construction.
//
// Error bound: a bucket spans [lo, lo * (1 + 1/16)), and estimates report
// the bucket midpoint clamped to the observed min/max, so a Percentile of
// an in-range value is within 1/32 (kRelativeError) of the value
// `Samples::Percentile` would return on the same data. Count, min and max
// (Percentile 0 and 100) are exact, Mean up to floating-point summation
// order.
//
// Thread safety: Add is a handful of relaxed atomic RMWs and is safe from
// any number of threads; readers (count, Mean, Percentile, Merge's source,
// ToSamples) may run concurrently with writers and see some consistent-
// enough prefix of the adds — per-bucket counts are never torn, but a
// reader racing a writer may see the bucket bumped before the sum.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/stats.h"

namespace rcloak::util {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // per octave
  static constexpr int kMinExponent = -20;  // lowest tracked: 2^-20
  static constexpr int kMaxExponent = 20;   // overflow from 2^20 up
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets +
      2;
  // Upper bound on |estimate - exact| / exact for in-range values.
  static constexpr double kRelativeError = 1.0 / (2 * kSubBuckets);
  // Default size of the ToSamples view.
  static constexpr std::size_t kDefaultViewPoints = 4096;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Records `count` observations of `value` (one bucket bump, not `count`).
  void Add(double value, std::uint64_t count = 1) noexcept {
    if (count == 0) return;
    buckets_[BucketIndex(value)].fetch_add(count, std::memory_order_relaxed);
    count_.fetch_add(count, std::memory_order_relaxed);
    if (!(value >= 0.0)) value = 0.0;  // NaN/negative: as the bucket does
    sum_.fetch_add(value * static_cast<double>(count),
                   std::memory_order_relaxed);
    LowerTo(min_, value);
    RaiseTo(max_, value);
  }

  // Folds `other`'s observations into this histogram.
  void Merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n =
          other.buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    LowerTo(min_, other.min_.load(std::memory_order_relaxed));
    RaiseTo(max_, other.max_.load(std::memory_order_relaxed));
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  bool empty() const noexcept { return count() == 0; }

  double Mean() const noexcept {
    const std::uint64_t n = count();
    return n ? sum_.load(std::memory_order_relaxed) / static_cast<double>(n)
             : 0.0;
  }

  // Estimate of `Samples::Percentile(q)` (linear interpolation between
  // nearest ranks), q in [0, 100]; NaN when empty, like Samples.
  double Percentile(double q) const noexcept {
    const Snapshot snap = Take();
    if (snap.total == 0) return std::numeric_limits<double>::quiet_NaN();
    const double rank = q / 100.0 * static_cast<double>(snap.total - 1);
    const double lo = std::floor(rank);
    Cursor cursor(snap);
    const double lo_value = cursor.ValueAt(static_cast<std::uint64_t>(lo));
    const double hi_value =
        cursor.ValueAt(static_cast<std::uint64_t>(std::ceil(rank)));
    return lo_value + (hi_value - lo_value) * (rank - lo);
  }

  // A bounded view for callers that consume `Samples`: the histogram's
  // quantiles at `max_points` evenly spaced ranks (every observation when
  // there are no more than that). Percentiles of the view track this
  // histogram's within the same error bound; its count() is
  // min(count(), max_points), not the number of observations.
  Samples ToSamples(std::size_t max_points = kDefaultViewPoints) const {
    Samples view;
    const Snapshot snap = Take();
    if (snap.total == 0 || max_points == 0) return view;
    const std::uint64_t points =
        std::min<std::uint64_t>(snap.total, max_points);
    Cursor cursor(snap);
    for (std::uint64_t k = 0; k < points; ++k) {
      const std::uint64_t rank =
          points == 1 ? 0
                      : static_cast<std::uint64_t>(std::llround(
                            static_cast<double>(k) *
                            static_cast<double>(snap.total - 1) /
                            static_cast<double>(points - 1)));
      view.Add(cursor.ValueAt(rank));
    }
    return view;
  }

  // ---- bucket geometry (exposed for tests) ----

  static std::size_t BucketIndex(double value) noexcept {
    if (!(value >= std::ldexp(1.0, kMinExponent))) return 0;  // also NaN
    if (value >= std::ldexp(1.0, kMaxExponent)) return kBuckets - 1;
    // IEEE-754 double: the exponent field picks the octave, the top
    // kSubBucketBits mantissa bits the linear sub-bucket within it.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    const std::uint64_t sub = (bits >> (52 - kSubBucketBits)) &
                              static_cast<std::uint64_t>(kSubBuckets - 1);
    return 1 +
           static_cast<std::size_t>(exponent - kMinExponent) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }
  // [BucketLowerBound(i), BucketUpperBound(i)) is what bucket i holds;
  // the underflow bucket reports [0, 2^-20), overflow [2^20, +inf).
  static double BucketLowerBound(std::size_t index) noexcept {
    if (index == 0) return 0.0;
    if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExponent);
    const std::size_t slot = index - 1;
    const int exponent = kMinExponent + static_cast<int>(slot / kSubBuckets);
    const double sub = static_cast<double>(slot % kSubBuckets);
    return std::ldexp(1.0 + sub / kSubBuckets, exponent);
  }
  static double BucketUpperBound(std::size_t index) noexcept {
    if (index >= kBuckets - 1) {
      return std::numeric_limits<double>::infinity();
    }
    return index == 0 ? std::ldexp(1.0, kMinExponent)
                      : BucketLowerBound(index + 1);
  }

 private:
  // A reader's copy of the buckets: totals and ranks come from the same
  // counts even while writers keep adding.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;
    double min = 0.0;
    double max = 0.0;
  };

  // Walks ascending ranks over a snapshot in one pass.
  class Cursor {
   public:
    explicit Cursor(const Snapshot& snap) : snap_(snap) {}
    // The estimate for the observation at 0-based `rank` (ranks must not
    // decrease between calls).
    double ValueAt(std::uint64_t rank) {
      while (bucket_ + 1 < kBuckets &&
             covered_ + snap_.counts[bucket_] <= rank) {
        covered_ += snap_.counts[bucket_];
        ++bucket_;
      }
      const double lo = BucketLowerBound(bucket_);
      const double hi =
          bucket_ + 1 < kBuckets ? BucketUpperBound(bucket_) : lo;
      const double mid = bucket_ == 0 ? snap_.min : 0.5 * (lo + hi);
      // A reader racing the first Add can see a count before min/max.
      if (!(snap_.min <= snap_.max)) return mid;
      if (rank == 0) return snap_.min;
      if (rank + 1 == snap_.total) return snap_.max;
      return std::min(std::max(mid, snap_.min), snap_.max);
    }

   private:
    const Snapshot& snap_;
    std::size_t bucket_ = 0;
    std::uint64_t covered_ = 0;  // observations in buckets before bucket_
  };

  Snapshot Take() const noexcept {
    Snapshot snap;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
      snap.total += snap.counts[i];
    }
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
    return snap;
  }

  static void LowerTo(std::atomic<double>& slot, double value) noexcept {
    double seen = slot.load(std::memory_order_relaxed);
    while (value < seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  static void RaiseTo(std::atomic<double>& slot, double value) noexcept {
    double seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace rcloak::util
