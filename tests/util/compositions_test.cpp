#include "util/compositions.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace whtlab::util {
namespace {

TEST(Compositions, CountAllParts) {
  EXPECT_EQ(composition_count(1), 1u);
  EXPECT_EQ(composition_count(2), 2u);
  EXPECT_EQ(composition_count(5), 16u);
  EXPECT_EQ(composition_count(10), 512u);
}

TEST(Compositions, CountAtLeastTwoParts) {
  EXPECT_EQ(composition_count(1, 2), 0u);
  EXPECT_EQ(composition_count(2, 2), 1u);
  EXPECT_EQ(composition_count(5, 2), 15u);
}

TEST(Compositions, CountAtLeastThreeParts) {
  // Compositions of 5 with >= 3 parts: 16 - 1 (one part) - 4 (two parts) = 11.
  EXPECT_EQ(composition_count(5, 3), 11u);
}

TEST(Compositions, MaskZeroIsSinglePart) {
  EXPECT_EQ(composition_from_mask(7, 0), (std::vector<int>{7}));
}

TEST(Compositions, MaskAllOnesIsAllUnits) {
  EXPECT_EQ(composition_from_mask(4, 0b111), (std::vector<int>{1, 1, 1, 1}));
}

TEST(Compositions, SpecificMask) {
  // n=5, cuts after positions 2 and 3 -> bits 1 and 2 -> mask 0b0110.
  EXPECT_EQ(composition_from_mask(5, 0b0110), (std::vector<int>{2, 1, 2}));
}

TEST(Compositions, MaskRoundTrip) {
  const int n = 7;
  for (std::uint64_t mask = 0; mask < (1ULL << (n - 1)); ++mask) {
    const auto parts = composition_from_mask(n, mask);
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0), n);
    EXPECT_EQ(composition_to_mask(parts), mask);
  }
}

TEST(Compositions, ForEachVisitsAllExactlyOnce) {
  const int n = 6;
  std::set<std::vector<int>> seen;
  std::uint64_t visits = 0;
  for_each_composition(n, 1, [&](const std::vector<int>& parts) {
    ++visits;
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0), n);
    EXPECT_TRUE(seen.insert(parts).second) << "duplicate composition";
  });
  EXPECT_EQ(visits, composition_count(n, 1));
}

TEST(Compositions, ForEachRespectsMinParts) {
  std::uint64_t visits = 0;
  for_each_composition(6, 3, [&](const std::vector<int>& parts) {
    EXPECT_GE(parts.size(), 3u);
    ++visits;
  });
  EXPECT_EQ(visits, composition_count(6, 3));
}

/// Sum of C(n-1, t-1) for t in [lo, hi]: compositions of n with lo..hi parts.
std::uint64_t count_with_parts(int n, int lo, int hi) {
  std::uint64_t total = 0;
  std::uint64_t binom = 1;  // C(n-1, t-1) at t = 1
  for (int t = 1; t <= hi && t <= n; ++t) {
    if (t >= lo) total += binom;
    binom = binom * static_cast<std::uint64_t>(n - t) /
            static_cast<std::uint64_t>(t);
  }
  return total;
}

TEST(Compositions, BoundedWalkIsTheFilteredFullWalkInMaskOrder) {
  for (int n = 1; n <= 16; ++n) {
    for (int min_parts = 1; min_parts <= 3; ++min_parts) {
      // The reference: every mask decoded on its own, in ascending order.
      std::vector<std::vector<int>> full;
      for (std::uint64_t mask = 0; mask < (1ULL << (n - 1)); ++mask) {
        auto parts = composition_from_mask(n, mask);
        if (static_cast<int>(parts.size()) >= min_parts) {
          full.push_back(std::move(parts));
        }
      }
      ASSERT_EQ(full.size(), composition_count(n, min_parts)) << n;
      std::vector<std::vector<int>> uncapped;
      for_each_composition(n, min_parts, [&](const std::vector<int>& parts) {
        uncapped.push_back(parts);
      });
      EXPECT_EQ(uncapped, full) << "n=" << n << " min=" << min_parts;
      for (int cap = 1; cap <= n; ++cap) {
        std::vector<std::vector<int>> expected;
        for (const auto& parts : full) {
          if (static_cast<int>(parts.size()) <= cap) expected.push_back(parts);
        }
        std::vector<std::vector<int>> bounded;
        std::uint64_t previous_mask = 0;
        for_each_composition(
            n, min_parts, cap, [&](const std::vector<int>& parts) {
              const std::uint64_t mask = composition_to_mask(parts);
              if (!bounded.empty()) {
                EXPECT_GT(mask, previous_mask) << "n=" << n << " cap=" << cap;
              }
              previous_mask = mask;
              bounded.push_back(parts);
            });
        EXPECT_EQ(bounded.size(), count_with_parts(n, min_parts, cap))
            << "n=" << n << " min=" << min_parts << " cap=" << cap;
        EXPECT_EQ(bounded, expected)
            << "n=" << n << " min=" << min_parts << " cap=" << cap;
      }
    }
  }
}

TEST(Compositions, BoundedWalkHonoursBothBounds) {
  std::uint64_t visits = 0;
  for_each_composition(9, 3, 4, [&](const std::vector<int>& parts) {
    EXPECT_GE(parts.size(), 3u);
    EXPECT_LE(parts.size(), 4u);
    EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), 0), 9);
    ++visits;
  });
  EXPECT_EQ(visits, count_with_parts(9, 3, 4));  // C(8,2) + C(8,3) = 84
  EXPECT_EQ(visits, 84u);
  // An empty range visits nothing (and terminates).
  for_each_composition(9, 3, 2, [](const std::vector<int>&) { FAIL(); });
  for_each_composition(9, 1, 0, [](const std::vector<int>&) { FAIL(); });
}

TEST(Compositions, BoundedWalkScalesPastTheFullSpace) {
  // 2^61 masks in the full space; the binary and ternary splits are 1,891.
  std::uint64_t visits = 0;
  for_each_composition(62, 2, 3, [&](const std::vector<int>&) { ++visits; });
  EXPECT_EQ(visits, count_with_parts(62, 2, 3));
  EXPECT_EQ(visits, 61u + 1830u);
}

TEST(Compositions, BadArgumentsThrow) {
  EXPECT_THROW(composition_count(0), std::invalid_argument);
  EXPECT_THROW(composition_count(64), std::invalid_argument);
  EXPECT_THROW(composition_from_mask(0, 0), std::invalid_argument);
  EXPECT_THROW(composition_from_mask(4, 0b1000), std::invalid_argument);
}

}  // namespace
}  // namespace whtlab::util
