// Fork-join over a contiguous index range.
//
// The batch execution paths (simd::execute_many groups, the parallel
// backend's across-vector run_many) and the parallel tree walk's per-factor
// fan-out (core::execute_parallel_strided) all need the same shape: split
// [0, total) into one contiguous chunk per worker, run the chunks on
// std::threads, join.  Kept header-only and dependency-free so every
// executor layer can share one copy of the partition arithmetic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace whtlab::util {

/// True when parallel_chunks(total, workers, ...) runs fn inline on the
/// calling thread (no worker threads spawned).  Exposed so callers deciding
/// whether caller-owned, single-thread resources (a ScratchArena) may be
/// handed to fn share ONE copy of the rule with the dispatch itself.
constexpr bool parallel_chunks_runs_inline(std::uint64_t total, int workers) {
  return workers <= 1 || total <= 1;
}

/// Invokes fn(begin, end) over a partition of [0, total) on up to `workers`
/// std::threads (contiguous, near-equal chunks; never more threads than
/// items).  parallel_chunks_runs_inline shapes run on the calling thread.
/// fn must be safe to call concurrently on disjoint ranges.
template <typename Fn>
void parallel_chunks(std::uint64_t total, int workers, const Fn& fn) {
  if (parallel_chunks_runs_inline(total, workers)) {
    fn(std::uint64_t{0}, total);
    return;
  }
  const std::uint64_t w =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(workers), total);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(w));
  for (std::uint64_t i = 0; i < w; ++i) {
    const std::uint64_t begin = total * i / w;
    const std::uint64_t end = total * (i + 1) / w;
    pool.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& t : pool) t.join();
}

}  // namespace whtlab::util
