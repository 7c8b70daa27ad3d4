// Open-loop schedule: seeded determinism, rate, and the backlog test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "loadgen.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(2000.0, 5.0, 7);
  const auto b = poisson_schedule(2000.0, 5.0, 7);
  const auto c = poisson_schedule(2000.0, 5.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, EmpiricalRateMatchesRequested) {
  // 200k expected arrivals: the count's sd is ~0.22%, so 1% is > 4 sd.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto s = poisson_schedule(20000.0, 10.0, seed);
    const double rate = static_cast<double>(s.size()) / 10.0;
    EXPECT_NEAR(rate, 20000.0, 200.0) << "seed " << seed;
    for (std::size_t i = 1; i < s.size(); ++i) ASSERT_LE(s[i - 1], s[i]);
    EXPECT_LT(s.back(), 10'000'000'000ULL);
  }
}

TEST(PoissonSchedule, GapsAreExponential) {
  // Exponential gaps: the share of gaps longer than the mean is 1/e.
  const auto s = poisson_schedule(1000.0, 100.0, 11);
  std::size_t longer = 0;
  for (std::size_t i = 1; i < s.size(); ++i) longer += (s[i] - s[i - 1]) > 1'000'000;
  EXPECT_NEAR(static_cast<double>(longer) / static_cast<double>(s.size() - 1),
              std::exp(-1.0), 0.01);
}

TEST(Backlog, SeriesCountsUncompletedEarlierArrivals) {
  const std::vector<std::uint64_t> intended = {0, 10, 20, 30};
  const std::vector<std::uint64_t> completed = {15, 25, kNeverCompleted, 31};
  EXPECT_EQ(backlog_series(intended, completed),
            (std::vector<std::uint64_t>{0, 1, 1, 1}));
}

TEST(Backlog, SteadyServiceDoesNotGrowOverloadDoes) {
  std::vector<std::uint64_t> intended, steady, overloaded;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    intended.push_back(i * 100);
    steady.push_back(i * 100 + 250);    // every request takes 2.5 gaps
    overloaded.push_back(i * 130 + 5);  // service slower than arrivals
  }
  EXPECT_FALSE(backlog_grows(backlog_series(intended, steady)));
  EXPECT_TRUE(backlog_grows(backlog_series(intended, overloaded)));
}

TEST(Backlog, OneShortStallIsNotGrowth) {
  std::vector<std::uint64_t> intended, completed;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    intended.push_back(i * 100);
    // Served in 250 ns, except that nothing completes while the server
    // stalls over [390000, 396000) -- inside the last quarter.
    std::uint64_t done = i * 100 + 250;
    if (done >= 390000 && done < 396000) done = 396000;
    completed.push_back(done);
  }
  EXPECT_FALSE(backlog_grows(backlog_series(intended, completed)));
}

}  // namespace
}  // namespace perfbench
