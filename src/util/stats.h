// Streaming statistics accumulators and percentile helpers for the
// experiment harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace rcloak {

// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void Add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  // Sum of squared deviations from the mean (the Welford accumulator).
  double m2() const noexcept { return m2_; }

  // Rebuilds an accumulator from count(), mean(), m2(), min() and max() —
  // the round trip a serialized summary needs.
  static RunningStats FromState(std::size_t n, double mean, double m2,
                                double min, double max) noexcept {
    RunningStats stats;
    if (n == 0) return stats;
    stats.n_ = n;
    stats.mean_ = mean;
    stats.m2_ = m2;
    stats.min_ = min;
    stats.max_ = max;
    return stats;
  }

  void Merge(const RunningStats& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    const double new_mean =
        mean_ + delta * static_cast<double>(other.n_) / total;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) / total;
    mean_ = new_mean;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Sample store for percentile queries; O(n log n) on demand.
class Samples {
 public:
  void Add(double x) { data_.push_back(x); }
  std::size_t count() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double Mean() const noexcept {
    if (data_.empty()) return 0.0;
    double s = 0;
    for (double x : data_) s += x;
    return s / static_cast<double>(data_.size());
  }

  // Nearest-rank percentile, q in [0, 100].
  double Percentile(double q) const {
    if (data_.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::vector<double> sorted = data_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

  double Median() const { return Percentile(50.0); }
  const std::vector<double>& data() const noexcept { return data_; }

  // Pools another sample set (e.g. merging per-shard server latencies).
  void Merge(const Samples& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }

 private:
  std::vector<double> data_;
};

// Shannon entropy (bits) of a discrete distribution given as counts.
double EntropyBits(const std::vector<double>& weights);

}  // namespace rcloak
