// Compositions (ordered partitions) of an integer.
//
// Applying Equation 1 to WHT(2^n) chooses a composition n = n1 + ... + nt;
// the plan space, its counting recurrences, the samplers, and the DP search
// all enumerate compositions.  A composition of n with t >= 1 parts
// corresponds to a subset of the n-1 possible "cut points": bit i of the mask
// set means a cut after position i+1.  There are 2^(n-1) compositions, and
// mask 0 is the trivial one-part composition.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace whtlab::util {

/// Number of compositions of n with at least `min_parts` parts.
/// n must be in [1, 63].
std::uint64_t composition_count(int n, int min_parts = 1);

/// Decodes cut-point mask (0 <= mask < 2^(n-1)) into parts.
std::vector<int> composition_from_mask(int n, std::uint64_t mask);

/// Encodes parts back into the cut-point mask (inverse of the above).
std::uint64_t composition_to_mask(const std::vector<int>& parts);

/// Calls fn(const std::vector<int>& parts) for every composition of n with
/// between `min_parts` and `max_parts` parts (clamped to [1, n]), in
/// ascending mask order.  A mask with too many cuts jumps past every mask
/// that shares its high bits (`mask += mask & -mask`), so a capped walk
/// costs sum_{t=min..max} C(n-1, t-1) candidates, not 2^(n-1) decodes;
/// masks with too few cuts are stepped over one by one (only mask 0 when
/// min_parts <= 2).  The vector is reused between calls; copy it if you keep
/// it.
template <typename Fn>
void for_each_composition(int n, int min_parts, int max_parts, Fn&& fn) {
  const std::uint64_t total = std::uint64_t{1} << (n - 1);
  const int min_cuts = std::max(min_parts, 1) - 1;
  const int max_cuts = std::min(max_parts, n) - 1;
  if (max_cuts < min_cuts) return;
  std::vector<int> parts;
  std::uint64_t mask = 0;
  while (mask < total) {
    const int cuts = std::popcount(mask);
    if (cuts > max_cuts) {
      mask += mask & -mask;
      continue;
    }
    if (cuts >= min_cuts) {
      parts.clear();
      int previous = 0;
      for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
        const int position = std::countr_zero(rest) + 1;  // cut after this
        parts.push_back(position - previous);
        previous = position;
      }
      parts.push_back(n - previous);
      fn(parts);
    }
    ++mask;
  }
}

/// The uncapped walk: every composition of n with at least `min_parts`
/// parts, all 2^(n-1) masks in order.
template <typename Fn>
void for_each_composition(int n, int min_parts, Fn&& fn) {
  for_each_composition(n, min_parts, n, std::forward<Fn>(fn));
}

}  // namespace whtlab::util
