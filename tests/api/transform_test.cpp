// wht::Transform: execution entry points vs core::execute, batching,
// striding, the copying conveniences, and empty-transform errors.
#include "api/transform.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "api/planner.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

Transform fixed(const core::Plan& plan, const std::string& backend = "generated") {
  return Planner().fixed(plan).backend(backend).plan();
}

using util::random_vector;

TEST(Transform, DefaultConstructedIsInvalidAndThrows) {
  Transform t;
  EXPECT_FALSE(t.valid());
  double x[2] = {1.0, -1.0};
  EXPECT_THROW(t.execute(x), std::logic_error);
  EXPECT_THROW(t.execute_many(x, 1), std::logic_error);
}

TEST(Transform, ExecuteMatchesCoreExecute) {
  const core::Plan plan = core::Plan::balanced_binary(10, 4);
  auto t = fixed(plan);
  auto data = random_vector(plan.size(), 1);
  auto reference = data;
  t.execute(data.data());
  core::execute(plan, reference.data());
  EXPECT_EQ(data, reference);  // same backend, bit-identical
}

TEST(Transform, PlanRoundTripsThroughGrammar) {
  const std::string grammar = "split[small[2],split[small[3],small[3]]]";
  auto t = Planner().fixed(grammar).plan();
  EXPECT_EQ(t.plan().to_string(), grammar);
  EXPECT_EQ(t.log2_size(), 8);
  EXPECT_EQ(t.size(), 256u);
  // ...and the Transform's plan re-parses to an equal plan (plan_io round
  // trip through the façade accessor).
  auto again = Planner().fixed(t.plan().to_string()).plan();
  EXPECT_EQ(again.plan(), t.plan());
}

TEST(Transform, ExecuteManyMatchesPerVectorExecution) {
  const core::Plan plan = core::Plan::iterative_radix(9, 4);
  const std::uint64_t n = plan.size();
  constexpr std::size_t kBatch = 5;
  auto t = fixed(plan);
  auto batch = random_vector(n * kBatch, 2);
  auto reference = batch;
  t.execute_many(batch.data(), kBatch);
  for (std::size_t v = 0; v < kBatch; ++v) {
    core::execute(plan, reference.data() + v * n);
  }
  EXPECT_EQ(batch, reference);
}

TEST(Transform, ExecuteManyWithCustomDist) {
  const core::Plan plan = core::Plan::small(4);
  const std::uint64_t n = plan.size();
  const std::ptrdiff_t dist = static_cast<std::ptrdiff_t>(n) + 7;
  constexpr std::size_t kBatch = 3;
  auto t = fixed(plan);
  std::vector<double> batch(static_cast<std::size_t>(dist) * kBatch, 0.5);
  auto reference = batch;
  t.execute_many(batch.data(), kBatch, dist);
  for (std::size_t v = 0; v < kBatch; ++v) {
    core::execute(plan, reference.data() + v * static_cast<std::size_t>(dist));
  }
  EXPECT_EQ(batch, reference);
}

TEST(Transform, ExecuteManyRejectsOverlappingDist) {
  auto t = fixed(core::Plan::small(4));
  std::vector<double> batch(64, 1.0);
  EXPECT_THROW(t.execute_many(batch.data(), 2, 8), std::invalid_argument);
  EXPECT_THROW(t.execute_many(batch.data(), 2, 0), std::invalid_argument);
}

TEST(Transform, StridedExecuteMatchesDense) {
  const core::Plan plan = core::Plan::balanced_binary(7, 3);
  const std::uint64_t n = plan.size();
  constexpr std::ptrdiff_t kStride = 2;
  auto t = fixed(plan);
  std::vector<double> strided(n * kStride, 0.0);
  std::vector<double> dense(n);
  util::Rng rng(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    dense[i] = rng.uniform(-1, 1);
    strided[i * kStride] = dense[i];
  }
  t.execute(strided.data(), kStride);
  core::execute(plan, dense.data());
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(strided[i * kStride], dense[i]) << i;
  }
}

TEST(Transform, ZeroStrideThrows) {
  auto t = fixed(core::Plan::small(3));
  std::vector<double> x(t.size(), 1.0);
  EXPECT_THROW(t.execute(x.data(), 0), std::invalid_argument);
}

TEST(Transform, ExecuteCopyLeavesInputIntact) {
  const core::Plan plan = core::Plan::right_recursive(8);
  auto t = fixed(plan);
  const auto input = random_vector(plan.size(), 4);
  auto in_copy = input;
  std::vector<double> out(plan.size(), 0.0);
  t.execute_copy(in_copy.data(), out.data());
  EXPECT_EQ(in_copy, input);
  auto reference = input;
  core::execute(plan, reference.data());
  EXPECT_EQ(out, reference);
}

TEST(Transform, ApplyReturnsTransformedCopy) {
  const core::Plan plan = core::Plan::iterative(6);
  auto t = fixed(plan);
  const auto input = random_vector(plan.size(), 5);
  const auto output = t.apply(input);
  auto reference = input;
  core::execute(plan, reference.data());
  EXPECT_EQ(output, reference);
  EXPECT_THROW(t.apply(std::vector<double>(3, 0.0)), std::invalid_argument);
}

TEST(Transform, ParallelBackendMatchesSequential) {
  const core::Plan plan = core::Plan::balanced_binary(13, 5);
  auto par = Planner().fixed(plan).threads(4).plan();
  EXPECT_EQ(par.backend_name(), "parallel");
  auto seq = fixed(plan);
  auto a = random_vector(plan.size(), 6);
  auto b = a;
  par.execute(a.data());
  seq.execute(b.data());
  EXPECT_EQ(a, b);
}

TEST(Transform, MeasureReportsOrderedStatistics) {
  auto t = fixed(core::Plan::balanced_binary(8, 4));
  perf::MeasureOptions options;
  options.repetitions = 5;
  options.warmup = 1;
  const auto result = t.measure(options);
  EXPECT_GT(result.min_cycles, 0.0);
  EXPECT_LE(result.min_cycles, result.median_cycles);
  EXPECT_GE(result.inner_loop, 1);
}

TEST(Transform, MeasureRejectsNonPositiveRepetitions) {
  auto t = fixed(core::Plan::small(4));
  perf::MeasureOptions options;
  options.repetitions = 0;
  EXPECT_THROW(t.measure(options), std::invalid_argument);
  options.repetitions = 1;
  options.warmup = -1;
  EXPECT_THROW(t.measure(options), std::invalid_argument);
}

TEST(Transform, MoveTransfersOwnership) {
  auto t = fixed(core::Plan::small(5));
  auto moved = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move): contract test
  EXPECT_TRUE(moved.valid());
  std::vector<double> x(moved.size(), 1.0);
  moved.execute(x.data());
  EXPECT_EQ(x[0], static_cast<double>(moved.size()));
}

}  // namespace
}  // namespace whtlab::api
