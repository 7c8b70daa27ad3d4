// Vectorized interpreter for cache-blocked fused schedules.
//
// core/schedule.hpp lowers a plan into nested cache-blocked rounds of fused
// passes; this module executes such a schedule with the per-ISA fused
// kernels (simd/kernels.hpp): the unit pass is the in-register contiguous
// codelet swept across a block, and every strided pass is a flat streaming
// loop of radix-2..32 register tiles, W columns per step.  The caller's
// buffer may start anywhere on the cache-line grid (std::vector storage is
// often 16 B past a line): strided passes group their columns on the
// W-double vector grid of the buffer, with one masked edge tile per column
// group, so their loads and stores never split a line and the output does
// not depend on the buffer's offset.  Nothing is copied or allocated for
// it; the contiguous unit pass runs on the buffer as it lies.  Dispatch
// follows the same runtime rules as the tree-walk executor (cpu_features.hpp);
// scalar level, strided invocations, and schedules a width cannot cover
// (transform or unit pass smaller than a vector) fall back to the scalar
// schedule interpreter — the parity reference.
//
// This is the execution engine behind the "fused" backend (which lowers one
// schedule per size at construction, from detect_blocking()), and the layer
// future big-n backends (sharded/NUMA, GPU) lower through: they consume the
// same core::Schedule, swapping only the per-pass kernels.
#pragma once

#include <cstddef>

#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"

namespace whtlab::simd {

/// Blocking geometry for this host: L1/L2 block sizes derived from the
/// probed cache_sizes() (half of each level, in doubles), defaults where a
/// level is unknown.  Together with n this fixes the schedule the "fused"
/// backend runs; tests and benches that want another geometry pass an
/// explicit core::BlockingConfig to core::lower_size.
core::BlockingConfig detect_blocking();

/// Executes `schedule` in place on the 2^n elements x[0], x[stride], ...
/// at the given (or active) SIMD level.  Bit-identical to core::execute on
/// any plan of the same size.
void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride, SimdLevel level);
void execute_fused(const core::Schedule& schedule, double* x,
                   std::ptrdiff_t stride = 1);

/// Batched fused execution: `count` vectors, vector v at x + v*dist, fanned
/// out over `threads` workers (each vector runs the whole schedule — the
/// schedule lowering is shared, which is what run_many batching buys here).
void execute_fused_many(const core::Schedule& schedule, double* x,
                        std::size_t count, std::ptrdiff_t dist, int threads);

}  // namespace whtlab::simd
