// telemetry::Accumulator — lock-free online running stats for the serving
// path (extension; the paper's lesson that modeled cost drifts from measured
// cost applies at serve time too, so the Engine records cheap live
// observations, which whtd exports through its stats page).
//
// One Accumulator tracks a single series of non-negative integer
// observations (cycles per vector on the Engine's hot path):
//
//   * count / sum / sum-of-squares  -> mean, variance, stddev;
//   * min / max                     -> lifetime extremes (never decayed);
//   * a fixed 64-bucket log2-scaled histogram -> p50/p99/any quantile
//     without allocation (bucket b holds values with bit_width == b; the
//     benches record their latencies into the same Stats type);
//   * epoch-based decay: every `decay_window` records a stripe halves its
//     count/sum/sumsq/buckets, so the running mean and the percentiles are
//     exponentially weighted toward the most recent epoch (this IS the
//     live EWMA — there is no separate EWMA cell to update on the hot
//     path).
//
// Recording is wait-free-ish (a handful of relaxed fetch_adds; min/max
// degrade to a CAS only when they actually change) and the storage is
// striped: each recording thread lands on its own cache-line-padded Cell,
// so concurrent recorders on one series do not bounce a shared line.
// snapshot() merges the stripes into a plain Stats value.  Totals for
// count/sum/min/max/buckets are exact under any interleaving (integer
// fetch_add / monotone CAS), which is what the 8-thread bit-stability test
// asserts; sumsq uses an unsynchronised load-add-store on an atomic double
// (a same-stripe race can drop an addend) and is advisory.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace whtlab::telemetry {

inline constexpr int kBuckets = 64;
inline constexpr int kStripes = 8;  ///< power of two (stripe index is masked)

/// Unserialized tick source for interval timing on the serving hot path.
/// Same time base as perf::read_cycles (TSC on x86, steady_clock ns
/// elsewhere) but without the fencing — a few ticks of skew is noise at the
/// microsecond scale of a served request, and the fences would double the
/// cost of recording.
inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Histogram bucket of a value: its bit width, so bucket b holds
/// [2^(b-1), 2^b - 1] (bucket 0 holds 0), saturating at the last bucket.
inline int bucket_of(std::uint64_t value) {
  return std::min(static_cast<int>(std::bit_width(value)), kBuckets - 1);
}

/// Plain-value snapshot of one series (also the merge unit: parallel
/// aggregation is just field-wise addition, Chan-style, since the moments
/// are kept as raw sums).  record() makes it a single-owner histogram in its
/// own right — the benches' per-client latency series.
struct Stats {
  std::uint64_t count = 0;
  std::uint64_t min = ~std::uint64_t{0};  ///< lifetime; ~0 when count == 0
  std::uint64_t max = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  std::uint64_t buckets[kBuckets] = {};

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Single-owner recording (no atomics, no decay).
  void record(std::uint64_t value) {
    ++count;
    min = std::min(min, value);
    max = std::max(max, value);
    sum += static_cast<double>(value);
    sumsq += static_cast<double>(value) * static_cast<double>(value);
    ++buckets[bucket_of(value)];
  }

  double variance() const {
    if (count < 2) return 0.0;
    const double m = mean();
    const double v = sumsq / static_cast<double>(count) - m * m;
    return v > 0.0 ? v : 0.0;  // clamp catastrophic cancellation
  }

  double stddev() const { return std::sqrt(variance()); }

  /// Quantile from the log2 histogram: the upper bound (2^b - 1, as a
  /// double) of the bucket holding the q-th ranked observation.  Power-of-
  /// two quantisation — good to within 2x, allocation-free, and monotone in
  /// q (so p50 <= p99 <= max-bucket-bound always holds).  q outside [0, 1]
  /// is clamped; returns 0 for an empty series.
  double percentile(double q) const {
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets) total += b;
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) {
        return b == 0 ? 0.0 : std::ldexp(1.0, b) - 1.0;
      }
    }
    return std::ldexp(1.0, kBuckets);  // unreachable
  }

  void merge(const Stats& other) {
    count += other.count;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
    sumsq += other.sumsq;
    for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  }
};

namespace detail {

/// One stripe.  Padded to its own cache lines so stripes never share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<double> sumsq{0.0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
  std::atomic<std::uint64_t> buckets[kBuckets] = {};

  /// `decay_mask` is the power-of-two decay window minus one (so the epoch
  /// check is a mask, not a division), or 0 for never-decay.
  void record(std::uint64_t value, std::uint64_t decay_mask) {
    const std::uint64_t c = count.fetch_add(1, std::memory_order_relaxed) + 1;
    sum.fetch_add(value, std::memory_order_relaxed);
    // Advisory moment: plain load-add-store on the atomic double — a racing
    // recorder on the same stripe can drop an addend, which variance()
    // (monitoring-grade) tolerates; the exact fields below never lose.
    const double sq = static_cast<double>(value) * static_cast<double>(value);
    sumsq.store(sumsq.load(std::memory_order_relaxed) + sq,
                std::memory_order_relaxed);
    buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    // Load-then-CAS: after warm-up min/max almost never move, so the common
    // case is two relaxed loads and no RMW at all.
    std::uint64_t m = min.load(std::memory_order_relaxed);
    while (value < m &&
           !min.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
    }
    std::uint64_t x = max.load(std::memory_order_relaxed);
    while (value > x &&
           !max.compare_exchange_weak(x, value, std::memory_order_relaxed)) {
    }
    // Exactly one recorder observes each crossing of the window boundary,
    // so at most one decay runs per epoch even under contention.
    if (decay_mask != 0 && (c & decay_mask) == 0) decay();
  }

  /// Halves the aging fields (count/sum/sumsq/buckets) by subtraction, so
  /// concurrent increments are never lost; min/max are lifetime extremes
  /// and stay.  A snapshot racing a decay can see mixed epochs — the mean
  /// is barely perturbed (numerator and denominator halve together) and
  /// the stats are monitoring-grade, not ledger-grade.
  void decay() {
    const std::uint64_t c = count.load(std::memory_order_relaxed);
    count.fetch_sub(c / 2, std::memory_order_relaxed);
    const std::uint64_t s = sum.load(std::memory_order_relaxed);
    sum.fetch_sub(s / 2, std::memory_order_relaxed);
    double q = sumsq.load(std::memory_order_relaxed);
    while (!sumsq.compare_exchange_weak(q, q * 0.5,
                                        std::memory_order_relaxed)) {
    }
    for (auto& b : buckets) {
      const std::uint64_t v = b.load(std::memory_order_relaxed);
      b.fetch_sub(v / 2, std::memory_order_relaxed);
    }
  }

  void load_into(Stats& out) const {
    Stats part;
    part.count = count.load(std::memory_order_relaxed);
    part.min = min.load(std::memory_order_relaxed);
    part.max = max.load(std::memory_order_relaxed);
    part.sum = static_cast<double>(sum.load(std::memory_order_relaxed));
    part.sumsq = sumsq.load(std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b) {
      part.buckets[b] = buckets[b].load(std::memory_order_relaxed);
    }
    out.merge(part);
  }
};

/// Small dense thread index for striping (hashing std::thread::id gives no
/// distribution guarantee; a counter round-robins threads across stripes,
/// so up to kStripes recorders never collide).
inline unsigned stripe_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index & (kStripes - 1);
}

}  // namespace detail

class Accumulator {
 public:
  Accumulator() = default;
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;

  /// Records between halvings, per stripe; 0 (default) never decays.
  /// Rounded up to a power of two (minimum 2) so the hot-path epoch check
  /// is a mask instead of a division.
  void set_decay_window(std::uint64_t window) {
    const std::uint64_t mask =
        window == 0 ? 0 : std::bit_ceil(std::max<std::uint64_t>(window, 2)) - 1;
    decay_mask_.store(mask, std::memory_order_relaxed);
  }

  void record(std::uint64_t value) {
    cells_[detail::stripe_index()].record(
        value, decay_mask_.load(std::memory_order_relaxed));
  }

  Stats snapshot() const {
    Stats out;
    for (const auto& cell : cells_) cell.load_into(out);
    return out;
  }

  void decay() {
    for (auto& cell : cells_) cell.decay();
  }

 private:
  detail::Cell cells_[kStripes];
  std::atomic<std::uint64_t> decay_mask_{0};  ///< pow2 window - 1; 0 = never
};

}  // namespace whtlab::telemetry
