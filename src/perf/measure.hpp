// Runtime measurement protocol.
//
// Measuring µs-scale transforms reliably requires warmup (instruction cache,
// branch predictors, page faults), repetition, and a robust summary.  The
// protocol here:
//
//   1. allocate a line-aligned buffer and a pseudo-random master copy;
//   2. warmup executions (not timed);
//   3. `repetitions` timed executions; before each, the working buffer is
//      restored from the master by memcpy (the WHT is data-oblivious, so the
//      copy only serves to keep values bounded; the copy is outside the
//      timed region but *warms the cache identically before every rep*,
//      making reps comparable);
//   4. report minimum, median, mean cycles and the interquartile range.
//
// Experiments use the median (robust to timer interrupts); the paper's
// single-shot PAPI readings correspond most closely to the minimum.
//
// For very small transforms a single execution is below timer resolution, so
// the timed unit is a batch of `inner_loop` back-to-back executions and the
// reported value is the per-execution average.  auto_inner_loop() picks a
// batch size targeting ~50 µs per timed unit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/codelet.hpp"
#include "core/plan.hpp"

namespace whtlab::perf {

struct MeasureOptions {
  int warmup = 2;            ///< untimed executions before measuring
  int repetitions = 7;       ///< timed samples
  int inner_loop = 0;        ///< executions per timed sample; 0 = auto
  core::CodeletBackend backend = core::CodeletBackend::kGenerated;
  std::uint64_t seed = 0xC0FFEE;  ///< master-buffer fill
};

struct MeasureResult {
  double min_cycles = 0.0;
  double median_cycles = 0.0;
  double mean_cycles = 0.0;
  double iqr_cycles = 0.0;  ///< interquartile range of the samples
  int inner_loop = 1;  ///< batch size actually used

  /// The experiment harness's "cycle count" — the median.
  double cycles() const { return median_cycles; }
};

/// One in-place execution over a buffer of doubles — whatever engine the
/// caller wants timed (core::execute, an api::ExecutorBackend, a SIMD
/// batch, ...).  The protocol owns the buffer; `run` must transform
/// x[0 .. size) in place.
using RunFn = std::function<void(double* x)>;

/// Picks a batch size so one timed unit of `run` over `size` doubles takes
/// >= ~50 us (one probe execution on a random buffer).
int auto_inner_loop(const RunFn& run, std::uint64_t size);

/// Same heuristic for a plan under core::execute with `backend` codelets.
int auto_inner_loop(const core::Plan& plan, core::CodeletBackend backend);

/// The measurement protocol itself, engine-agnostic: times `run` on a
/// master-restored aligned buffer of `size` doubles per the steps above.
/// MeasureOptions::backend is ignored (the engine is `run`).  Throws
/// std::invalid_argument on repetitions < 1 or warmup < 0.  Every other
/// measurement entry point (measure_plan, api::measure_with_backend) is a
/// thin wrapper over this, so the protocol exists exactly once.
MeasureResult measure_run(const RunFn& run, std::uint64_t size,
                          const MeasureOptions& options = {});

/// Measures `plan` per the protocol above via core::execute with
/// options.backend's codelets.
MeasureResult measure_plan(const core::Plan& plan,
                           const MeasureOptions& options = {});

}  // namespace whtlab::perf
