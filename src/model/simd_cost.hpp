// Instruction-count model for the SIMD backend (pricing hook).
//
// The TCS'06 instruction model (instruction_model.hpp) prices a plan for the
// scalar interpreter.  The SIMD executor (src/simd/) retires the same
// butterflies W at a time wherever its dispatch rules apply, so a planner
// pricing the "simd" backend with scalar counts would systematically favour
// the wrong plans (vectorizability varies across the plan space: big
// unit-stride leaves and large accumulated strides vectorize; the k < W
// prefix does not).
//
// simd_instruction_count() walks the plan with exactly the executor's
// dispatch rules — unit-stride leaf of >= W elements -> in-register codelet,
// inner loop at accumulated stride S >= W -> W-wide lockstep subtree,
// everything else scalar — and divides the vectorized portions' costs by W.
// Loop/call overhead is charged scalar except inside lockstep subtrees,
// where one tree walk drives W transforms.  Like the scalar model it is
// computable from the plan description alone in O(tree); kEstimate planning
// for the "simd" backend runs on it via CombinedModel::vector_width.
#pragma once

#include "core/instrumented.hpp"
#include "core/plan.hpp"

namespace whtlab::model {

/// Per-transform instruction count of one SIMD execution of `plan` with
/// vector width `width` (1 reproduces instruction_count exactly).
double simd_instruction_count(const core::Plan& plan,
                              const core::InstructionWeights& weights,
                              int width);

}  // namespace whtlab::model
