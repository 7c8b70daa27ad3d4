#include "search/dp_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "model/combined_model.hpp"
#include "model/instruction_model.hpp"
#include "search/enumerate.hpp"
#include "util/compositions.hpp"

namespace whtlab::search {
namespace {

double model_cost(const core::Plan& plan) {
  return model::instruction_count(plan);
}

TEST(DpSearch, FindsGlobalOptimumOfDecomposableCost) {
  // The instruction model is exactly decomposable over subtrees (child cost
  // enters with positive multiplier), so DP with all compositions must find
  // the true global minimum — cross-check against exhaustive search.
  DpOptions options;
  options.max_leaf = 4;
  for (int n = 1; n <= 7; ++n) {
    const auto result = dp_search(n, model_cost, options);
    double best = 1e300;
    for (const auto& plan : enumerate_plans(n, options.max_leaf)) {
      best = std::min(best, model_cost(plan));
    }
    EXPECT_DOUBLE_EQ(result.cost, best) << n;
    EXPECT_DOUBLE_EQ(model_cost(result.plan), result.cost);
  }
}

TEST(DpSearch, BestBySizeIsInternallyConsistent) {
  const auto result = dp_search(10, model_cost);
  for (int m = 1; m <= 10; ++m) {
    const auto& plan = result.best_by_size[static_cast<std::size_t>(m)];
    EXPECT_EQ(plan.log2_size(), m);
    EXPECT_DOUBLE_EQ(model_cost(plan), result.cost_by_size[static_cast<std::size_t>(m)]);
  }
  // Cost per size must be non-decreasing in n (bigger transform, more work).
  for (int m = 2; m <= 10; ++m) {
    EXPECT_GT(result.cost_by_size[static_cast<std::size_t>(m)],
              result.cost_by_size[static_cast<std::size_t>(m - 1)]);
  }
}

TEST(DpSearch, BeatsCanonicalPlansOnTheModel) {
  // The tuned plan uses larger base cases and must beat all three canonical
  // algorithms on modeled instructions (the Figure 2 "best" behaviour).
  const auto result = dp_search(16, model_cost);
  EXPECT_LT(result.cost, model_cost(core::Plan::iterative(16)));
  EXPECT_LT(result.cost, model_cost(core::Plan::right_recursive(16)));
  EXPECT_LT(result.cost, model_cost(core::Plan::left_recursive(16)));
}

TEST(DpSearch, MaxPartsRestrictsCandidates) {
  const auto full = dp_search(8, model_cost);
  DpOptions binary;
  binary.max_parts = 2;
  const auto restricted = dp_search(8, model_cost, binary);
  EXPECT_LT(restricted.evaluations, full.evaluations);
  EXPECT_GE(restricted.cost, full.cost);  // restriction can't improve
  // Every split in the witness is binary.
  std::function<void(const core::PlanNode&)> check = [&](const core::PlanNode& node) {
    if (node.kind == core::NodeKind::kSplit) {
      EXPECT_LE(node.children.size(), 2u);
      for (const auto& child : node.children) check(*child);
    }
  };
  check(restricted.plan.root());
}

TEST(DpSearch, CombinedModelCostWorksToo) {
  model::CombinedModel combined;
  combined.cache.cache_elements = 512;  // tiny cache: misses matter
  const auto result = dp_search(
      12, [&combined](const core::Plan& p) { return combined(p); });
  EXPECT_EQ(result.plan.log2_size(), 12);
  EXPECT_GT(result.cost, 0.0);
}

TEST(DpSearch, EvaluationBudgetIsSumOfCandidates) {
  DpOptions options;
  options.max_leaf = 1;  // leaf only admissible at m=1
  const auto result = dp_search(5, model_cost, options);
  // candidates: m=1: 1 leaf; m>=2: 2^(m-1)-1 compositions.
  // 1 + 1 + 3 + 7 + 15 = 27.
  EXPECT_EQ(result.evaluations, 27u);
}

/// The DP as it stood before the bounded walk: every cut mask of every size
/// is decoded in ascending order, and splits over max_parts are dropped
/// afterwards.  Same candidate order, so the bounded search must agree with
/// it exactly.
DpResult filtered_full_walk_dp(int n, const CostFn& cost,
                               const DpOptions& options) {
  DpResult result;
  result.best_by_size.resize(static_cast<std::size_t>(n) + 1);
  result.cost_by_size.assign(static_cast<std::size_t>(n) + 1, 0.0);
  for (int m = 1; m <= n; ++m) {
    bool have = false;
    core::Plan best_plan;
    double best_cost = 0.0;
    auto consider = [&](core::Plan candidate) {
      const double c = cost(candidate);
      ++result.evaluations;
      if (!have || c < best_cost) {
        best_cost = c;
        best_plan = std::move(candidate);
        have = true;
      }
    };
    if (m <= options.max_leaf) consider(core::Plan::small(m));
    for (std::uint64_t mask = 1; mask < (1ULL << (m - 1)); ++mask) {
      const auto parts = util::composition_from_mask(m, mask);
      if (options.max_parts > 0 &&
          static_cast<int>(parts.size()) > options.max_parts) {
        continue;
      }
      if (*std::min_element(parts.begin(), parts.end()) < options.min_part) {
        continue;
      }
      std::vector<core::Plan> children;
      for (int part : parts) {
        children.push_back(result.best_by_size[static_cast<std::size_t>(part)]);
      }
      consider(core::Plan::split(std::move(children)));
    }
    result.best_by_size[static_cast<std::size_t>(m)] = best_plan;
    result.cost_by_size[static_cast<std::size_t>(m)] = best_cost;
  }
  result.plan = result.best_by_size[static_cast<std::size_t>(n)];
  result.cost = result.cost_by_size[static_cast<std::size_t>(n)];
  return result;
}

TEST(DpSearch, BoundedWalkMatchesTheFilteredFullWalk) {
  // constant: every candidate ties, so the first one in walk order wins at
  // every size — pins the enumeration order.  hashed: a pseudo-random cost
  // per plan, so the winner moves whenever any candidate is added, dropped
  // or reordered.
  const CostFn constant = [](const core::Plan&) { return 1.0; };
  const CostFn hashed = [](const core::Plan& plan) {
    return static_cast<double>(std::hash<std::string>{}(plan.to_string()) %
                               1000003);
  };
  const std::vector<std::pair<const char*, CostFn>> costs = {
      {"instructions", model_cost}, {"constant", constant}, {"hashed", hashed}};
  for (const auto& [name, cost] : costs) {
    for (const int max_parts : {0, 2, 3, 4}) {
      for (const int min_part : {1, 2}) {
        for (int n = 1; n <= 14; ++n) {
          DpOptions options;
          options.max_parts = max_parts;
          options.min_part = min_part;
          const auto got = dp_search(n, cost, options);
          const auto want = filtered_full_walk_dp(n, cost, options);
          const std::string where = std::string(name) + " n=" +
                                    std::to_string(n) + " max_parts=" +
                                    std::to_string(max_parts) + " min_part=" +
                                    std::to_string(min_part);
          EXPECT_EQ(got.plan, want.plan) << where;
          EXPECT_EQ(got.cost, want.cost) << where;
          EXPECT_EQ(got.evaluations, want.evaluations) << where;
          EXPECT_EQ(got.best_by_size, want.best_by_size) << where;
          EXPECT_EQ(got.cost_by_size, want.cost_by_size) << where;
        }
      }
    }
  }
}

TEST(DpSearch, CappedSearchAtLargeNCompletes) {
  // The full space is 2^39 compositions at m = 40; with max_parts = 3 each
  // size m prices its C(m-1, 1) + C(m-1, 2) splits plus leaves.
  const auto result =
      dp_search(40, [](const core::Plan&) { return 1.0; }, {.max_parts = 3});
  EXPECT_EQ(result.plan.log2_size(), 40);
  std::uint64_t expected = core::kMaxUnrolled;
  for (int m = 2; m <= 40; ++m) {
    expected += static_cast<std::uint64_t>((m - 1) + (m - 1) * (m - 2) / 2);
  }
  EXPECT_EQ(result.evaluations, expected);
}

TEST(DpSearch, ArgumentValidation) {
  EXPECT_THROW(dp_search(0, model_cost), std::invalid_argument);
  EXPECT_THROW(dp_search(5, nullptr), std::invalid_argument);
  DpOptions bad;
  bad.max_leaf = 99;
  EXPECT_THROW(dp_search(5, model_cost, bad), std::invalid_argument);
}

}  // namespace
}  // namespace whtlab::search
