#include "model/simd_cost.hpp"

#include <cstdint>
#include <vector>

#include "model/instruction_model.hpp"

namespace whtlab::model {

namespace {

/// Execution context of a subtree under the SIMD executor's dispatch rules
/// (mirrors simd/simd_executor.cpp's walk / walk_lockstep).
enum class Mode {
  kScalar,    ///< strided invocation: scalar codelets throughout
  kUnit,      ///< unit-stride invocation: vectorizes where the rules allow
  kLockstep,  ///< W transforms per vector op: every cost divided by W
};

double node_cost(const core::PlanNode& node, Mode mode, int width,
                 const core::InstructionWeights& weights) {
  const double w = static_cast<double>(width);
  if (node.kind == core::NodeKind::kSmall) {
    const double scalar = leaf_cost(node.log2_size, weights);
    if (mode == Mode::kLockstep) return scalar / w;
    if (mode == Mode::kUnit &&
        node.size() >= static_cast<std::uint64_t>(width)) {
      return scalar / w;  // in-register stride-1 codelet
    }
    return scalar;
  }

  std::vector<int> parts;
  parts.reserve(node.children.size());
  for (const auto& child : node.children) parts.push_back(child->log2_size);
  double total = split_overhead(node.log2_size, parts, weights);
  if (mode == Mode::kLockstep) total /= w;

  // Children last-to-first, tracking the accumulated stride S exactly like
  // the executor: child i runs N/Ni times, in lockstep once S >= W (unit
  // context), at unit stride only while S == 1.
  std::uint64_t s = 1;
  for (std::size_t i = node.children.size(); i-- > 0;) {
    const core::PlanNode& child = *node.children[i];
    Mode child_mode = Mode::kScalar;
    if (mode == Mode::kLockstep) {
      child_mode = Mode::kLockstep;
    } else if (mode == Mode::kUnit) {
      if (s >= static_cast<std::uint64_t>(width)) {
        child_mode = Mode::kLockstep;
      } else if (s == 1) {
        child_mode = Mode::kUnit;
      }
    }
    const double multiplicity =
        child_multiplicity(node.log2_size, child.log2_size);
    total += multiplicity * node_cost(child, child_mode, width, weights);
    s *= child.size();
  }
  return total;
}

}  // namespace

double simd_instruction_count(const core::Plan& plan,
                              const core::InstructionWeights& weights,
                              int width) {
  if (width <= 1) return instruction_count(plan, weights);
  return node_cost(plan.root(), Mode::kUnit, width, weights);
}

}  // namespace whtlab::model
