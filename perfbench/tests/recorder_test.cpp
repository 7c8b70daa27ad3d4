// LatencyRecorder against percentiles taken directly from sorted samples:
// within one bucket width (1/64) of the exact nearest-rank value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "recorder.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

/// Reference nearest-rank percentile: sort, take element ceil(q*N) - 1.
double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

constexpr double kRelError = 1.0 / 64;

TEST(LatencyRecorder, MatchesSortedSamplePercentiles) {
  whtlab::util::Rng rng(42);
  for (const std::size_t n : {1u, 2u, 7u, 100u, 1000u, 12345u}) {
    LatencyRecorder rec;
    std::vector<double> raw;
    for (std::size_t i = 0; i < n; ++i) {
      // Heavy-tailed, like latencies: mostly small, a few large.
      const double v = rng.uniform() < 0.95 ? rng.uniform(10, 20) : rng.uniform(100, 5000);
      rec.add(v);
      raw.push_back(v);
    }
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double exact = sorted_percentile(raw, q);
      EXPECT_NEAR(rec.quantile(q), exact, exact * kRelError) << "n=" << n << " q=" << q;
    }
    EXPECT_EQ(rec.count(), n);
  }
}

TEST(LatencyRecorder, ValuesAreNotQuantised) {
  // 1000 samples inside one bucket: each percentile still reads its own
  // value, within the bucket's width, not the bucket's edge.
  LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.add(500.0 + 0.001 * i);
  EXPECT_NEAR(rec.quantile(0.5), 500.5, 500.5 * kRelError);
  EXPECT_NEAR(rec.quantile(0.99), 500.99, 500.99 * kRelError);
  EXPECT_LT(rec.quantile(0.5), rec.quantile(0.99));
  EXPECT_DOUBLE_EQ(rec.quantile(1.0), 501.0);  // the exact maximum
  EXPECT_NEAR(rec.mean(), 500.5005, 1e-9);
}

TEST(LatencyRecorder, OutOfRangeValuesKeepTheirRank) {
  LatencyRecorder rec;
  rec.add(0.0);
  rec.add(1e-6);
  rec.add(5.0);
  rec.add(1e12);
  EXPECT_DOUBLE_EQ(rec.quantile(0.25), 0.0);
  EXPECT_NEAR(rec.quantile(0.75), 5.0, 5.0 * kRelError);
  EXPECT_DOUBLE_EQ(rec.quantile(1.0), 1e12);
}


TEST(LatencyRecorder, TailNeedsTenSamplesBeyond) {
  LatencyRecorder rec;
  for (int i = 0; i < 999; ++i) rec.add(i);
  EXPECT_FALSE(rec.supports(0.99));  // 999 - 990 = 9 beyond
  EXPECT_DOUBLE_EQ(rec.tail_level(), 0.9);
  rec.add(999);
  EXPECT_TRUE(rec.supports(0.99));   // 1000 - 990 = 10 beyond
  EXPECT_DOUBLE_EQ(rec.tail_level(), 0.99);
  for (int i = 0; i < 9000; ++i) rec.add(i);
  EXPECT_DOUBLE_EQ(rec.tail_level(), 0.999);
}

TEST(LatencyRecorder, MergeEqualsOneRecorder) {
  LatencyRecorder a, b, both;
  for (int i = 0; i < 500; ++i) {
    a.add(i * 3.0);
    both.add(i * 3.0);
    b.add(i * 7.0 + 1);
    both.add(i * 7.0 + 1);
  }
  a.merge(b);
  for (const double q : {0.5, 0.9, 0.99}) EXPECT_EQ(a.quantile(q), both.quantile(q));
}

}  // namespace
}  // namespace perfbench
