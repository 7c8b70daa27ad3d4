// The concurrent-serving execution contract: one wht::Transform, many
// threads, no external locking — every backend, bit-identical to serial
// execution.  These suites are the ThreadSanitizer CI job's main workload
// (.github/workflows/ci.yml, WHTLAB_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "api/planner.hpp"
#include "api/transform.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

/// One shared Transform hammered from `threads` threads; every thread's
/// every output must equal the serial output of the same Transform.
void hammer(const Transform& transform, int threads, int iterations,
            std::uint64_t seed) {
  const std::uint64_t n = transform.size();
  const std::vector<double> input = random_vector(n, seed);
  std::vector<double> reference = input;
  transform.execute(reference.data());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&transform, &input, &reference, &mismatches,
                       iterations]() {
      std::vector<double> work(input.size());
      for (int i = 0; i < iterations; ++i) {
        work = input;
        transform.execute(work.data());
        if (work != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0)
      << transform.backend_name() << " n=" << transform.log2_size();
}

class SharedTransformTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedTransformTest, EightThreadsBitIdenticalToSerial) {
  for (const int n : {10, 16}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    const auto transform =
        Planner().fixed(plan).backend(GetParam()).threads(2).plan();
    hammer(transform, /*threads=*/8, /*iterations=*/n >= 16 ? 3 : 8,
           /*seed=*/static_cast<std::uint64_t>(n));
  }
}

TEST_P(SharedTransformTest, ConcurrentBatchesBitIdenticalToSerial) {
  const core::Plan plan = core::Plan::iterative_radix(9, 4);
  const std::uint64_t n = plan.size();
  constexpr std::size_t kBatch = 9;  // full SIMD groups plus a remainder
  const auto transform =
      Planner().fixed(plan).backend(GetParam()).threads(2).plan();

  const std::vector<double> input = random_vector(n * kBatch, 77);
  std::vector<double> reference = input;
  transform.execute_many(reference.data(), kBatch);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&]() {
      std::vector<double> work(input.size());
      for (int i = 0; i < 4; ++i) {
        work = input;
        transform.execute_many(work.data(), kBatch);
        if (work != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0) << transform.backend_name();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SharedTransformTest,
                         ::testing::Values("generated", "parallel", "simd",
                                           "fused"));

TEST(SharedTransform, ApplyIsSafeFromManyThreads) {
  // apply() transforms in its own result vector; concurrent calls must
  // neither race nor cross results.
  const core::Plan plan = core::Plan::balanced_binary(8, 4);
  const auto transform = Planner().fixed(plan).backend("simd").plan();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&, t]() {
      const auto input =
          random_vector(plan.size(), static_cast<std::uint64_t>(100 + t));
      auto reference = input;
      core::execute(plan, reference.data());
      for (int i = 0; i < 6; ++i) {
        if (transform.apply(input) != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace whtlab::api
