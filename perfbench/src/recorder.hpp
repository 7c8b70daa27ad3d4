// Latency recorder: log-linear buckets of fixed size, so the memory it holds
// does not grow with the number of requests (and so cannot move the peak
// RSS that rss_mb reports).  Each power of two is split into 64 equal
// buckets, so a bucket is at most 1/64 (1.6%) of its values wide; the
// 2048 buckets (8 KiB) span 2^-6 to 2^26 (15 ns to 67 s in us).
//
// Percentiles use the nearest-rank rule: the q-quantile of N samples is the
// ceil(q*N)-th smallest.  The recorder finds that sample's bucket and
// places it by rank inside the bucket (the bucket's k-th of c samples sits
// at (k - 0.5) / c of its width, the width cut to the exact minimum and
// maximum); the first and the last rank read the exact minimum and maximum.
// The relative error against the exact sorted-sample percentile is below
// one bucket width, and no value is rounded to a power of two.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

class LatencyRecorder {
 public:
  /// Values below 2^kMinExp land in the first bucket and values from
  /// 2^kMaxExp up in the last; the clamp to min/max keeps their ranks.
  static constexpr int kSubBits = 6;
  static constexpr int kMinExp = -6;
  static constexpr int kMaxExp = 26;

  void add(double value) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[bucket(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void merge(const LatencyRecorder& other) {
    if (other.count_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank q-quantile, q in (0, 1]; 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t r = rank(q);
    if (r == 1) return min_;
    if (r == count_) return max_;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (below + c < r) {
        below += c;
        continue;
      }
      // The bucket's part between the exact minimum and maximum (the edge
      // buckets also hold the values outside the range).
      const double lo = i == 0 ? min_ : std::max(lower_edge(i), min_);
      const double hi = i + 1 == kBuckets ? max_ : std::min(lower_edge(i + 1), max_);
      const double at = lo + (hi - lo) * (static_cast<double>(r - below) - 0.5) /
                                 static_cast<double>(c);
      return std::clamp(at, min_, max_);
    }
    return max_;
  }

  double median() const { return quantile(0.5); }

  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  /// Samples strictly above the q-quantile's rank.
  std::uint64_t beyond(double q) const { return count_ == 0 ? 0 : count_ - rank(q); }

  /// True when the q-quantile has at least `min_beyond` samples beyond it.
  bool supports(double q, std::uint64_t min_beyond = 10) const {
    return count_ != 0 && beyond(q) >= min_beyond;
  }

  /// The highest of p99.9, p99, p90 and p50 with at least ten samples
  /// beyond it (0 when not even the median qualifies).
  double tail_level() const {
    for (const double q : {0.999, 0.99, 0.9, 0.5}) {
      if (supports(q)) return q;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = static_cast<std::size_t>(kMaxExp - kMinExp) * kSub;

  static std::size_t bucket(double value) {
    if (!(value >= std::ldexp(1.0, kMinExp))) return 0;
    if (value >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
    int exp = 0;
    const double mantissa = std::frexp(value, &exp);  // [0.5, 1)
    const auto octave = static_cast<std::size_t>(exp - 1 - kMinExp);
    const auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 * kSub);
    return octave * kSub + std::min(sub, kSub - 1);
  }

  /// Lower edge of bucket i (i = kBuckets gives the top of the range).
  static double lower_edge(std::size_t i) {
    const auto octave = static_cast<int>(i / kSub);
    const double step = static_cast<double>(i % kSub) / static_cast<double>(kSub);
    return std::ldexp(1.0 + step, kMinExp + octave);
  }

  std::uint64_t rank(double q) const {
    const auto n = static_cast<double>(count_);
    const auto r = static_cast<std::uint64_t>(std::ceil(q * n - 1e-9));
    return std::clamp<std::uint64_t>(r, 1, count_);
  }

  std::vector<std::uint32_t> counts_;  ///< empty until the first sample
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace perfbench
