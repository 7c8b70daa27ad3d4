// telemetry::Accumulator — the serving path's lock-free running stats.
//
// The contract under test: count/sum/min/max/buckets are EXACT under any
// interleaving (integer fetch_add and monotone CAS lose nothing), the log2
// percentile is monotone and within its power-of-two quantisation, and
// decay halves the aging fields without touching the lifetime extremes.
#include "telemetry/accumulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace whtlab::telemetry {
namespace {

TEST(TelemetryAccumulator, RecordsBasicMoments) {
  Accumulator acc;
  for (std::uint64_t v : {10u, 20u, 30u, 40u}) acc.record(v);
  const Stats s = acc.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 40u);
  EXPECT_DOUBLE_EQ(s.sum, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 25.0);
  EXPECT_NEAR(s.variance(), 125.0, 1e-9);  // population variance of 10..40
}

TEST(TelemetryAccumulator, EmptySeriesIsDefined) {
  const Accumulator acc;
  const Stats s = acc.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

TEST(TelemetryAccumulator, PercentileIsMonotoneAndWithinQuantisation) {
  Accumulator acc;
  // 98 cheap observations around 100 cycles, two 100000-cycle outliers: the
  // p50 must stay in the cheap regime, the p99 must see the outliers.
  for (int i = 0; i < 98; ++i) acc.record(100 + static_cast<std::uint64_t>(i));
  acc.record(100000);
  acc.record(100000);
  const Stats s = acc.snapshot();
  const double p50 = s.percentile(0.50);
  const double p99 = s.percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, static_cast<double>(s.max) * 2.0)
      << "log2 buckets overstate by at most 2x";
  EXPECT_GE(p50, 100.0) << "bucket upper bound never understates its members";
  EXPECT_LT(p50, 2.0 * 198.0);
  EXPECT_GE(p99, 100000.0 / 2.0);
  // Monotone in q across the whole range.
  double last = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double p = s.percentile(q);
    EXPECT_GE(p, last) << "q = " << q;
    last = p;
  }
}

TEST(TelemetryAccumulator, MergeIsFieldwiseAddition) {
  Accumulator a;
  Accumulator b;
  for (std::uint64_t v : {1u, 2u, 3u}) a.record(v);
  for (std::uint64_t v : {100u, 200u}) b.record(v);
  Stats merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 200u);
  EXPECT_DOUBLE_EQ(merged.sum, 306.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : merged.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, 5u) << "histogram mass equals count";
}

TEST(TelemetryAccumulator, DecayHalvesAgingFieldsKeepsExtremes) {
  Accumulator acc;
  for (int i = 0; i < 100; ++i) acc.record(1000);
  acc.record(7);       // lifetime min
  acc.record(900000);  // lifetime max
  const Stats before = acc.snapshot();
  acc.decay();
  const Stats after = acc.snapshot();
  EXPECT_LT(after.count, before.count);
  EXPECT_GE(after.count, before.count / 2) << "halving, not clearing";
  EXPECT_LT(after.sum, before.sum);
  EXPECT_EQ(after.min, 7u) << "extremes are lifetime, never decayed";
  EXPECT_EQ(after.max, 900000u);
  // The mean survives the halving (numerator and denominator shrink
  // together); wide tolerance for the odd-count rounding.
  EXPECT_NEAR(after.mean(), before.mean(), 0.05 * before.mean());
}

TEST(TelemetryAccumulator, DecayWindowTriggersAutomatically) {
  Accumulator acc;
  acc.set_decay_window(64);
  // Single thread lands on one stripe: its 64th record halves the stripe,
  // so the running count must stay bounded well under the record total.
  for (int i = 0; i < 10000; ++i) acc.record(50);
  const Stats s = acc.snapshot();
  EXPECT_LT(s.count, 10000u);
  EXPECT_GT(s.count, 0u);
  EXPECT_NEAR(s.mean(), 50.0, 1.0) << "constant series keeps its mean";
}

TEST(TelemetryAccumulator, EightThreadConcurrentRecordIsBitStable) {
  // The bit-stability contract: integer totals are exact under contention —
  // 8 threads x 20000 records must land every count, every sum unit, every
  // bucket increment, and the true extremes, with no decay racing.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  Accumulator acc;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&acc, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Thread-distinct values covering several buckets, with known
        // global extremes: thread 0 writes the min 1, the max is
        // 7 * 1000 + kPerThread - 1.
        acc.record(static_cast<std::uint64_t>(t) * 1000 + i + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const Stats s = acc.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 7u * 1000 + kPerThread);
  // Exact expected sum: sum over t of sum_{i=1..kPerThread} (1000 t + i).
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<double>(kPerThread) * 1000.0 * t +
                    static_cast<double>(kPerThread) * (kPerThread + 1) / 2.0;
  }
  EXPECT_DOUBLE_EQ(s.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

}  // namespace
}  // namespace whtlab::telemetry
