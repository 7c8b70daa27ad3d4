#include "core/parallel_executor.hpp"

#include "core/executor.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::core {

namespace {

/// Minimum work (child size * number of applications) per factor before
/// spawning threads is worth the fork-join cost.
constexpr std::uint64_t kParallelThreshold = 1 << 12;

}  // namespace

void execute_parallel_strided(const Plan& plan, double* x, std::ptrdiff_t stride,
                              int num_threads, CodeletBackend backend) {
  const auto& table = codelet_table(backend);
  const PlanNode& root = plan.root();
  if (num_threads <= 1 || root.kind == NodeKind::kSmall ||
      root.size() < kParallelThreshold) {
    execute_node(root, x, stride, table);
    return;
  }

  const std::uint64_t n = root.size();
  std::uint64_t r = n;
  std::uint64_t s = 1;
  // Children last-to-first, mirroring the sequential executor.
  for (std::size_t idx = root.children.size(); idx-- > 0;) {
    const PlanNode* child = root.children[idx].get();
    const std::uint64_t ni = child->size();
    r /= ni;
    // r * s independent child applications; task j * s + k is (j, k).
    util::parallel_chunks(
        r * s, num_threads, [&](std::uint64_t begin, std::uint64_t end) {
          for (std::uint64_t task = begin; task < end; ++task) {
            const std::uint64_t j = task / s;
            const std::uint64_t k = task % s;
            execute_node(*child,
                         x + static_cast<std::ptrdiff_t>(j * ni * s + k) * stride,
                         static_cast<std::ptrdiff_t>(s) * stride, table);
          }
        });
    s *= ni;
  }
}

void execute_parallel(const Plan& plan, double* x, int num_threads,
                      CodeletBackend backend) {
  execute_parallel_strided(plan, x, 1, num_threads, backend);
}

}  // namespace whtlab::core
