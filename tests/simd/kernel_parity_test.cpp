// Kernel-level parity: every radix each KernelSet entry dispatches to a
// compile-time tile, one named test per (level, kernel, radix, stage), each
// checked bitwise against a one-pass core::Schedule run by the scalar
// interpreter core::execute_schedule.  The whole-transform parity suites
// reach only the radixes the blocker and the planner happen to emit; these
// cases reach every arm of the runtime-radix dispatch, so a mis-wired arm
// fails under its own name (e.g. avx512_lockstep_pass_k4_stage11).  The
// strided pass also runs at every element offset 1..W-1 from the vector
// grid (..._stage8_off3), which is where it regroups its columns: at stage
// log2(W) (stride W) the edge tile is the whole pass.  Every kernel writes
// between guard words that must come back untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "simd/kernels.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace whtlab::simd {
namespace {

enum class Kernel { kUnitPass, kLockstepPass, kLeafUnit, kLeafLockstep };

struct Case {
  SimdLevel level;
  Kernel kernel;
  int k;      ///< radix log2 (u for the unit kernels)
  int stage;  ///< first butterfly stage (strided kernels; 0 for unit)
  int offset = 0;  ///< doubles from the vector grid to the kernel's base
};

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kUnitPass:
      return "unit_pass";
    case Kernel::kLockstepPass:
      return "lockstep_pass";
    case Kernel::kLeafUnit:
      return "leaf_unit";
    case Kernel::kLeafLockstep:
      return "leaf_lockstep";
  }
  return "?";
}

/// Every accepted radix of every kernel at every dispatchable SIMD level
/// this binary has a kernel table for.
std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (detected_level() < level || kernels_for(level) == nullptr) continue;
    const int lw = std::countr_zero(static_cast<unsigned>(vector_width(level)));
    for (int u = lw; u <= core::kMaxUnrolled; ++u) {
      cases.push_back({level, Kernel::kUnitPass, u, 0});
      cases.push_back({level, Kernel::kLeafUnit, u, 0});
    }
    for (int k = 1; k <= core::kMaxUnrolled; ++k) {
      for (const int stage : {lw, 8, 11}) {
        for (int offset = 0; offset < vector_width(level); ++offset) {
          cases.push_back({level, Kernel::kLockstepPass, k, stage, offset});
        }
      }
      // stride 2W: the leaf must leave the other W columns untouched.
      cases.push_back({level, Kernel::kLeafLockstep, k, lw + 1});
    }
  }
  return cases;
}

/// One round of one pass over a 2^block_log2 block: the scalar reference
/// for a single kernel call.
core::Schedule one_pass(int block_log2, int stage, int k) {
  core::Schedule schedule;
  schedule.log2_size = block_log2;
  core::ScheduleRound round;
  round.block_log2 = block_log2;
  round.passes.push_back({stage, k});
  schedule.rounds.push_back(round);
  return schedule;
}

class KernelParityTest : public ::testing::TestWithParam<Case> {};

TEST_P(KernelParityTest, MatchesOnePassScheduleBitwise) {
  const Case c = GetParam();
  const KernelSet& kernels = *kernels_for(c.level);
  // Two runs (unit kernels) or two spans of 2^(stage+k) (strided ones), so
  // the kernels' outer loops are exercised too.
  const int block_log2 = c.stage + c.k + 1;
  const std::uint64_t size = std::uint64_t{1} << block_log2;
  constexpr std::uint64_t kGuard = 16;
  constexpr double kGuardValue = -7.0;
  const std::uint64_t offset = static_cast<std::uint64_t>(c.offset);
  util::AlignedBuffer buffer(kGuard + offset + size + kGuard);
  buffer.fill(kGuardValue);
  double* x = buffer.data() + kGuard + offset;
  util::AlignedBuffer input(size);
  util::AlignedBuffer reference(size);
  util::Rng rng(static_cast<std::uint64_t>(c.k) * 131 +
                static_cast<std::uint64_t>(c.stage) * 7 + 5);
  for (std::uint64_t i = 0; i < size; ++i) {
    x[i] = input[i] = reference[i] = rng.uniform(-1, 1);
  }
  core::execute_schedule(one_pass(block_log2, c.stage, c.k), reference.data());

  const std::uint64_t width = static_cast<std::uint64_t>(kernels.width);
  const std::uint64_t stride = std::uint64_t{1} << c.stage;
  switch (c.kernel) {
    case Kernel::kUnitPass:
      kernels.fused_unit_pass(c.k, x, size >> c.k);
      break;
    case Kernel::kLockstepPass:
      kernels.fused_lockstep_pass(c.k, c.stage, x, size);
      break;
    case Kernel::kLeafUnit:
      for (std::uint64_t r = 0; r < size; r += std::uint64_t{1} << c.k) {
        kernels.leaf_unit(c.k, x + r);
      }
      break;
    case Kernel::kLeafLockstep:
      // One call: columns [0, W) of the first span only.  Every other
      // element must come back as it went in.
      kernels.leaf_lockstep(c.k, x, static_cast<std::ptrdiff_t>(stride));
      for (std::uint64_t i = 0; i < size; ++i) {
        if (i >= (stride << c.k) || i % stride >= width) reference[i] = input[i];
      }
      break;
  }
  for (std::uint64_t i = 0; i < buffer.size(); ++i) {
    if (i >= kGuard + offset && i < kGuard + offset + size) continue;
    ASSERT_EQ(buffer[i], kGuardValue) << "guard word " << i << " clobbered";
  }
  for (std::uint64_t i = 0; i < size; ++i) {
    if (x[i] != reference[i]) {
      EXPECT_EQ(x[i], reference[i]) << "first mismatch at element " << i;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DispatchableLevels, KernelParityTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = std::string(to_string(c.level)) + "_" +
                         kernel_name(c.kernel) + "_k" + std::to_string(c.k);
      if (c.kernel == Kernel::kLockstepPass) {
        name += "_stage" + std::to_string(c.stage);
      }
      if (c.offset != 0) name += "_off" + std::to_string(c.offset);
      return name;
    });
// A host or build without any SIMD kernel table has no cases.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelParityTest);

}  // namespace
}  // namespace whtlab::simd
