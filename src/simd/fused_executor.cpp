#include "simd/fused_executor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/codelet.hpp"
#include "simd/kernels.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::simd {

namespace {

int floor_log2(std::uint64_t v) {
  return static_cast<int>(std::bit_width(v)) - 1;
}

/// True when every pass of every round can run on the W-wide kernels: unit
/// passes need a full vector per run, strided passes a full vector per
/// column group, and radixes must not exceed the kernels' widest unrolled
/// tile.  The blocker's schedules satisfy this for any n >= log2(W) at the
/// default unit size; hand-built configs may not, and then the whole
/// schedule takes the scalar interpreter (per-pass mixing is not worth the
/// complexity — these are degenerate geometries, and the scalar path
/// validates them).
bool vectorizable(const core::ScheduleRound& round, std::uint64_t width) {
  for (const core::ScheduleRound& inner : round.inner) {
    if (inner.block_log2 > round.block_log2) return false;
    if (!vectorizable(inner, width)) return false;
  }
  for (const core::SchedulePass& pass : round.passes) {
    if (pass.stage < 0 || pass.radix_log2 < 1 ||
        pass.radix_log2 > core::kMaxUnrolled ||
        pass.stage + pass.radix_log2 > round.block_log2) {
      return false;  // malformed; the scalar interpreter throws on it
    }
    const std::uint64_t vector_span =
        pass.stage == 0 ? std::uint64_t{1} << pass.radix_log2
                        : std::uint64_t{1} << pass.stage;
    if (vector_span < width) return false;
  }
  return true;
}

bool vectorizable(const core::Schedule& schedule, std::uint64_t width) {
  for (const core::ScheduleRound& round : schedule.rounds) {
    if (!vectorizable(round, width)) return false;
  }
  return true;
}

void run_block(const core::ScheduleRound& round, double* x,
               const KernelSet& kernels) {
  for (const core::ScheduleRound& inner : round.inner) {
    const std::uint64_t sub = std::uint64_t{1} << inner.block_log2;
    const std::uint64_t count =
        (std::uint64_t{1} << round.block_log2) >> inner.block_log2;
    for (std::uint64_t b = 0; b < count; ++b) {
      run_block(inner, x + b * sub, kernels);
    }
  }
  const std::uint64_t block = std::uint64_t{1} << round.block_log2;
  for (const core::SchedulePass& pass : round.passes) {
    if (pass.stage == 0) {
      kernels.fused_unit_pass(pass.radix_log2, x, block >> pass.radix_log2);
    } else {
      kernels.fused_lockstep_pass(pass.radix_log2, pass.stage, x, block);
    }
  }
}

}  // namespace

core::BlockingConfig detect_blocking() {
  core::BlockingConfig config;
  const CacheSizes& caches = cache_sizes();
  // Blocks target half of each cache level: the other half absorbs the
  // strided pass tiles above the block and whatever else the process keeps
  // warm.  Unknown levels keep the generic defaults.
  if (caches.l1d_bytes > 0) {
    config.l1_block_log2 = floor_log2(caches.l1d_bytes / (2 * sizeof(double)));
  }
  if (caches.l2_bytes > 0) {
    config.l2_block_log2 = floor_log2(caches.l2_bytes / (2 * sizeof(double)));
  }
  config.l1_block_log2 = std::max(config.l1_block_log2, config.unit_log2);
  config.l2_block_log2 = std::max(config.l2_block_log2, config.l1_block_log2);
  return config;
}

void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride, SimdLevel level) {
  const auto& table = core::codelet_table(core::CodeletBackend::kGenerated);
  const KernelSet* kernels = kernels_for(level);
  if (kernels == nullptr || stride != 1 ||
      !vectorizable(schedule, static_cast<std::uint64_t>(kernels->width))) {
    core::execute_schedule(schedule, x, stride, table);
    return;
  }
  const std::uint64_t n = std::uint64_t{1} << schedule.log2_size;
  for (const core::ScheduleRound& round : schedule.rounds) {
    const std::uint64_t block = std::uint64_t{1} << round.block_log2;
    for (std::uint64_t b = 0; b < n >> round.block_log2; ++b) {
      run_block(round, x + b * block, *kernels);
    }
  }
}

void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride) {
  execute_fused(schedule, x, stride, active_level());
}

void execute_fused_many(const core::Schedule& schedule, double* x,
                        std::size_t count, std::ptrdiff_t dist, int threads) {
  const SimdLevel level = active_level();
  util::parallel_chunks(
      count, threads, [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          execute_fused(schedule, x + static_cast<std::ptrdiff_t>(v) * dist, 1,
                        level);
        }
      });
}

}  // namespace whtlab::simd
