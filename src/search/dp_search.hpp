// Dynamic-programming autotuner — the WHT package's "best plan" search.
//
// The original package (Johnson & Püschel, ICASSP 2000) finds fast plans by
// dynamic programming over transform sizes: the best plan of size 2^m is
// assembled from the already-found best subplans of its composition parts,
// and the candidates are compared by an arbitrary cost — measured runtime in
// the package and in Figure 1; a performance model here as well (which makes
// the search measurement-free, the paper's concluding suggestion).
//
// As the paper notes, DP is a heuristic: it assumes the best subplan is
// best in every calling context (stride/cache context breaks this in
// general), which is exactly why Figure 1's "best" is a lower envelope
// found by search, not a proven optimum.
//
// The number of compositions of m is 2^(m-1); with runtime costs this is
// prohibitive for large m, so candidates can be capped by `max_parts`
// (the package's practice — binary and ternary splits carry nearly all of
// the benefit since deeper splits are reachable through recursion).  The
// cap bounds the walk itself, not just what gets priced: size m enumerates
// only its sum_{t=2..max_parts} C(m-1, t-1) compositions (O(m^3) at the
// kEstimate default of 4: 2,625 at m = 26), in the same ascending mask
// order as the full walk, so candidates, tie-breaks and evaluation counts
// do not depend on how they are reached.  `max_parts = 0` still prices all
// 2^(m-1) - 1 splits of every size m.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/plan.hpp"
#include "model/cost_cache.hpp"

namespace whtlab::search {

using CostFn = std::function<double(const core::Plan&)>;

struct DpOptions {
  int max_leaf = core::kMaxUnrolled;
  /// Cap on composition parts per split; 0 = all 2^(m-1) compositions,
  /// each priced (exponential in n).
  int max_parts = 0;
  /// Restrict DP to sizes >= this as split parts (always 1).
  int min_part = 1;
  /// Whole-candidate memo.  Within one dp_search every candidate tree is
  /// distinct (each composition assembles different children), so this only
  /// pays when the caller shares one cache across searches — repeated
  /// plan() calls over overlapping sizes re-surface the same winners-by-
  /// size candidates.  DP's *within-search* speedup comes from the subtree
  /// memo the same cache feeds inside model::CombinedModel.  The caller
  /// must pair one cache with one cost function.
  model::CostCache* cost_cache = nullptr;
};

struct DpResult {
  core::Plan plan;              ///< best plan found for size 2^n
  double cost = 0.0;            ///< its cost
  std::vector<core::Plan> best_by_size;   ///< index m = best plan of size 2^m
  std::vector<double> cost_by_size;       ///< index m = its cost
  std::uint64_t evaluations = 0;          ///< cost-function invocations
};

/// Runs the DP search for WHT(2^n) with the given cost function.
DpResult dp_search(int n, const CostFn& cost, const DpOptions& options = {});

}  // namespace whtlab::search
