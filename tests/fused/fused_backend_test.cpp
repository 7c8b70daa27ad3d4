// Exhaustive parity of the fused-schedule engine against the scalar
// interpreter: every size up to 2^20, several plan shapes per size (the
// engine must be plan-oblivious), in-place / strided / out-of-place /
// batched paths, at every SIMD level this host can dispatch to.  Equality
// is bitwise (ASSERT_EQ on doubles): the fused passes retire the same
// butterflies in the same stage order, so there is no tolerance to hide a
// blocking or indexing bug behind.  The whole suite also runs under the CI
// ASan/UBSan job, which is what catches tile overruns.
#include "simd/fused_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/wht.hpp"
#include "api/wisdom.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::simd {
namespace {

std::vector<SimdLevel> dispatchable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (detected_level() >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Plan shapes the lowering must be oblivious to.
std::vector<core::Plan> plan_shapes(int n) {
  std::vector<core::Plan> plans;
  plans.push_back(core::Plan::right_recursive(n));
  plans.push_back(core::Plan::iterative(n));
  plans.push_back(core::Plan::balanced_binary(n, 4));
  if (n > core::kMaxUnrolled) {
    plans.push_back(core::Plan::iterative_radix(n, core::kMaxUnrolled));
  }
  return plans;
}

class ForcedLevel {
 public:
  explicit ForcedLevel(SimdLevel level) { force_level(level); }
  ~ForcedLevel() { reset_forced_level(); }
};

class FusedParityTest : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(FusedParityTest, AllSizesAllShapesUnitStride) {
  const SimdLevel level = GetParam();
  for (int n = 1; n <= 20; ++n) {
    for (const core::Plan& plan : plan_shapes(n)) {
      const core::Schedule schedule = core::lower_plan(plan, detect_blocking());
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 211 + 9);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute_fused(schedule, x.data(), 1, level);
      core::execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "level=" << to_string(level) << " n=" << n
            << " plan=" << plan.to_string() << " i=" << i;
      }
    }
  }
}

TEST_P(FusedParityTest, BlockGeometrySweep) {
  // Non-default blockings exercise every vector path boundary: nested and
  // single-round schedules, radix-1..3 in-cache passes and radix-4/5
  // streaming passes (every config keeps the default stream_radix_log2 of
  // 5), unit passes at and below the vector width (the latter must fall
  // back scalar, not crash).
  const SimdLevel level = GetParam();
  const std::vector<core::BlockingConfig> configs = {
      {8, 3, 11, 17}, {4, 3, 6, 9}, {8, 1, 10, 12}, {2, 2, 2, 4}, {3, 2, 5, 16}};
  for (int n : {6, 10, 13, 18}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    for (const core::BlockingConfig& config : configs) {
      const core::Schedule schedule = core::lower_size(n, config);
      util::AlignedBuffer x(plan.size());
      util::AlignedBuffer reference(plan.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 83 + 3);
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      execute_fused(schedule, x.data(), 1, level);
      core::execute(plan, reference.data());
      for (std::uint64_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(x[i], reference[i])
            << "level=" << to_string(level) << " n=" << n
            << " unit=" << config.unit_log2 << " l1=" << config.l1_block_log2
            << " l2=" << config.l2_block_log2 << " i=" << i;
      }
    }
  }
}

TEST_P(FusedParityTest, EveryElementOffsetKeepsGuardWords) {
  // A caller's buffer may start anywhere on the line grid (std::vector
  // storage is often 16 B past a line), and the strided passes regroup
  // their columns on that grid with masked edge vectors at both ends of the
  // array.  Guard words on both sides catch a lane that leaks out.  The
  // small blocking puts streaming passes (stages above the L2 block) at
  // these small sizes; the host blocking covers the in-cache passes.
  const SimdLevel level = GetParam();
  const std::vector<core::BlockingConfig> configs = {detect_blocking(),
                                                     {8, 3, 10, 12}};
  constexpr std::uint64_t kGuard = 16;
  constexpr double kGuardValue = -7.0;
  for (int n : {3, 9, 12, 13, 15, 16, 17}) {
    const core::Plan plan = core::Plan::iterative_radix(n, core::kMaxUnrolled);
    const std::uint64_t size = plan.size();
    std::vector<double> input(size);
    util::Rng rng(static_cast<std::uint64_t>(n) * 59 + 1);
    for (double& v : input) v = rng.uniform(-1, 1);
    std::vector<double> reference = input;
    core::execute(plan, reference.data());
    for (const core::BlockingConfig& config : configs) {
      const core::Schedule schedule = core::lower_size(n, config);
      for (std::uint64_t offset = 0; offset < 8; ++offset) {
        util::AlignedBuffer buffer(kGuard + offset + size + kGuard);
        buffer.fill(kGuardValue);
        double* x = buffer.data() + kGuard + offset;
        std::copy(input.begin(), input.end(), x);
        execute_fused(schedule, x, 1, level);
        for (std::uint64_t i = 0; i < size; ++i) {
          ASSERT_EQ(x[i], reference[i])
              << "level=" << to_string(level) << " n=" << n
              << " l2=" << config.l2_block_log2 << " offset=" << offset
              << " i=" << i;
        }
        for (std::uint64_t i = 0; i < buffer.size(); ++i) {
          if (i >= kGuard + offset && i < kGuard + offset + size) continue;
          ASSERT_EQ(buffer[i], kGuardValue)
              << "guard word " << i << " clobbered: level="
              << to_string(level) << " n=" << n
              << " l2=" << config.l2_block_log2 << " offset=" << offset;
        }
      }
    }
  }
}

TEST_P(FusedParityTest, StridedFallsBackAndKeepsGapsUntouched) {
  const SimdLevel level = GetParam();
  for (int n : {4, 9, 12}) {
    for (const std::ptrdiff_t stride : {2, 3, 7}) {
      const core::Plan plan = core::Plan::balanced_binary(n, 4);
      const core::Schedule schedule = core::lower_plan(plan, detect_blocking());
      const std::uint64_t size = plan.size();
      util::AlignedBuffer strided(size * static_cast<std::uint64_t>(stride));
      util::AlignedBuffer dense(size);
      util::Rng rng(static_cast<std::uint64_t>(n) * 29 + 11);
      strided.fill(-9.0);
      for (std::uint64_t i = 0; i < size; ++i) {
        const double v = rng.uniform(-1, 1);
        strided[i * static_cast<std::uint64_t>(stride)] = v;
        dense[i] = v;
      }
      execute_fused(schedule, strided.data(), stride, level);
      core::execute(plan, dense.data());
      for (std::uint64_t i = 0; i < size; ++i) {
        ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride)], dense[i])
            << "level=" << to_string(level) << " n=" << n
            << " stride=" << stride << " i=" << i;
      }
      for (std::uint64_t i = 0; i + 1 < size; ++i) {
        for (std::ptrdiff_t off = 1; off < stride; ++off) {
          ASSERT_EQ(strided[i * static_cast<std::uint64_t>(stride) +
                            static_cast<std::uint64_t>(off)],
                    -9.0)
              << "sentinel clobbered at i=" << i << " off=" << off;
        }
      }
    }
  }
}

TEST_P(FusedParityTest, ExecuteManyBatchesWithPadding) {
  const SimdLevel level = GetParam();
  const ForcedLevel forced(level);
  for (int n : {1, 6, 11}) {
    const core::Plan plan = core::Plan::balanced_binary(n, 4);
    const core::Schedule schedule = core::lower_plan(plan, detect_blocking());
    const std::uint64_t size = plan.size();
    for (std::size_t count : {std::size_t{1}, std::size_t{5}, std::size_t{12}}) {
      for (const std::uint64_t pad : {std::uint64_t{0}, std::uint64_t{3}}) {
        const std::uint64_t dist = size + pad;
        util::AlignedBuffer work(count * dist);
        std::vector<double> reference(count * dist, -4.0);
        util::Rng rng(static_cast<std::uint64_t>(n) * 500 + count);
        work.fill(-4.0);
        for (std::size_t v = 0; v < count; ++v) {
          for (std::uint64_t i = 0; i < size; ++i) {
            work[v * dist + i] = reference[v * dist + i] = rng.uniform(-1, 1);
          }
        }
        for (int threads : {1, 3}) {
          util::AlignedBuffer batch(count * dist);
          for (std::uint64_t i = 0; i < count * dist; ++i) batch[i] = work[i];
          execute_fused_many(schedule, batch.data(), count,
                             static_cast<std::ptrdiff_t>(dist), threads);
          for (std::size_t v = 0; v < count; ++v) {
            std::vector<double> expect(reference.begin() + v * dist,
                                       reference.begin() + v * dist + size);
            core::execute(plan, expect.data());
            for (std::uint64_t i = 0; i < size; ++i) {
              ASSERT_EQ(batch[v * dist + i], expect[i])
                  << "level=" << to_string(level) << " n=" << n
                  << " count=" << count << " pad=" << pad
                  << " threads=" << threads << " v=" << v << " i=" << i;
            }
            for (std::uint64_t i = size; i < dist; ++i) {
              ASSERT_EQ(batch[v * dist + i], -4.0) << "pad clobbered";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DispatchableLevels, FusedParityTest,
                         ::testing::ValuesIn(dispatchable_levels()),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FusedBackendFacade, RegisteredAndPlanOblivious) {
  auto& registry = api::BackendRegistry::global();
  ASSERT_TRUE(registry.contains("fused"));

  // Two fixed plans of one size must produce identical results through the
  // façade — the backend lowers both to the same schedule.
  auto a = api::Planner().fixed(core::Plan::iterative(12)).backend("fused").plan();
  auto b = api::Planner()
               .fixed(core::Plan::balanced_binary(12, 4))
               .backend("fused")
               .plan();
  EXPECT_EQ(a.backend_name(), "fused");
  std::vector<double> in(a.size());
  util::Rng rng(31);
  for (auto& v : in) v = rng.uniform(-1, 1);
  EXPECT_EQ(a.apply(in), b.apply(in));

  auto scalar = api::Planner().fixed(core::Plan::iterative(12)).plan();
  EXPECT_EQ(a.apply(in), scalar.apply(in));
}

TEST(FusedBackendFacade, ExecuteCopyMatchesGenerated) {
  auto fused_t = api::Planner().backend("fused").plan(13);
  auto scalar_t = api::Planner().fixed(fused_t.plan()).plan();
  std::vector<double> in(fused_t.size());
  util::Rng rng(41);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<double> out_fused(fused_t.size());
  std::vector<double> out_scalar(fused_t.size());
  fused_t.execute_copy(in.data(), out_fused.data());
  scalar_t.execute_copy(in.data(), out_scalar.data());
  EXPECT_EQ(out_fused, out_scalar);
}

TEST(FusedBackendFacade, EverySearchingStrategyPlansWithoutEvaluating) {
  // "fused" runs every plan of a size identically, so no strategy has a
  // candidate worth pricing or measuring: each returns iterative_radix at
  // the planner's leaf cap with zero evaluations and zero cost.
  perf::MeasureOptions cheap;
  cheap.warmup = 0;
  cheap.repetitions = 1;
  for (const api::Strategy strategy :
       {api::Strategy::kEstimate, api::Strategy::kMeasure,
        api::Strategy::kExhaustive, api::Strategy::kSampled,
        api::Strategy::kAnneal}) {
    for (const int n : {1, 6, 8, 12, 20, 26}) {
      if (strategy == api::Strategy::kExhaustive && n > 8) continue;
      for (const int max_leaf : {core::kMaxUnrolled, 4}) {
        const auto t = api::Planner()
                           .strategy(strategy)
                           .backend("fused")
                           .max_leaf(max_leaf)
                           .measure_options(cheap)
                           .plan(n);
        const auto& info = t.planning();
        EXPECT_EQ(info.evaluations, 0u)
            << api::to_string(strategy) << " n=" << n;
        EXPECT_EQ(info.cost, 0.0) << api::to_string(strategy) << " n=" << n;
        EXPECT_EQ(t.plan().to_string(),
                  core::Plan::iterative_radix(n, max_leaf).to_string())
            << api::to_string(strategy) << " n=" << n;
      }
    }
  }
  // kExhaustive keeps its size guard on every backend.
  EXPECT_THROW(
      api::Planner().strategy(api::Strategy::kExhaustive).backend("fused").plan(9),
      std::invalid_argument);
  // kFixed keeps the caller's plan.
  const core::Plan pinned = core::Plan::balanced_binary(12, 4);
  EXPECT_EQ(api::Planner().fixed(pinned).backend("fused").plan().plan().to_string(),
            pinned.to_string());
}

TEST(FusedBackendFacade, PlannedOutputsMatchGeneratedAtEveryLevel) {
  for (const SimdLevel level : dispatchable_levels()) {
    const ForcedLevel forced(level);
    for (int n = 1; n <= 20; ++n) {
      const auto fused_t = api::Planner().backend("fused").plan(n);
      const auto reference = api::Planner().fixed(fused_t.plan()).plan();
      std::vector<double> in(fused_t.size());
      util::Rng rng(static_cast<std::uint64_t>(n) * 17 + 5);
      for (auto& v : in) v = rng.uniform(-1, 1);
      ASSERT_EQ(fused_t.apply(in), reference.apply(in))
          << "level=" << to_string(level) << " n=" << n;
    }
  }
}

TEST(FusedBackendFacade, WisdomRecordsTheShapeForPrewarm) {
  // Skipping the search must not skip the wisdom insert: the recorded key
  // is what lets Engine::prewarm (and whtd --prewarm) rebuild the shape.
  const std::string path = ::testing::TempDir() + "fused_prewarm_wisdom.txt";
  std::remove(path.c_str());
  api::WisdomRegistry::global().invalidate(path);

  const auto t = api::Planner().backend("fused").wisdom_file(path).plan(14);
  EXPECT_FALSE(t.planning().from_wisdom);
  const api::Wisdom::Key key{to_string(active_level()), 14, "estimate", "fused"};
  const api::Wisdom recorded_wisdom = api::Wisdom::load(path);
  const core::Plan* recorded = recorded_wisdom.lookup(key);
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->to_string(), t.plan().to_string());

  const auto again = api::Planner().backend("fused").wisdom_file(path).plan(14);
  EXPECT_TRUE(again.planning().from_wisdom);

  api::EngineOptions options;
  options.backends = {"fused"};
  options.wisdom_file = path;
  options.measure_costs = false;
  api::Engine engine(options);
  EXPECT_EQ(engine.prewarm(), 1u);
  std::remove(path.c_str());
}

TEST(FusedBackendFacade, RejectsSizesAboveThePlannerBound) {
  auto backend = api::BackendRegistry::global().create("fused");
  const core::Plan too_big = core::Plan::iterative_radix(api::kMaxLog2Size + 1,
                                                         core::kMaxUnrolled);
  // The size check fires before the buffer is touched.
  EXPECT_THROW(backend->run(too_big, nullptr), std::invalid_argument);
  EXPECT_THROW(backend->run_many(too_big, nullptr, 2,
                                 static_cast<std::ptrdiff_t>(too_big.size())),
               std::invalid_argument);
}

TEST(FusedBackendFacade, ThreadsFanOutBatchChunks) {
  api::BackendOptions options;
  options.threads = 4;
  auto backend = api::BackendRegistry::global().create("fused", options);
  const core::Plan plan = core::Plan::balanced_binary(9, 4);
  const std::size_t count = 21;
  std::vector<double> batch(count * plan.size());
  util::Rng rng(53);
  for (auto& v : batch) v = rng.uniform(-1, 1);
  std::vector<double> reference = batch;
  backend->run_many(plan, batch.data(), count,
                    static_cast<std::ptrdiff_t>(plan.size()));
  for (std::size_t v = 0; v < count; ++v) {
    core::execute(plan, reference.data() + v * plan.size());
  }
  EXPECT_EQ(batch, reference);
}

}  // namespace
}  // namespace whtlab::simd
