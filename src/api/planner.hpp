// wht::Planner — the FFTW-style planning façade.
//
// One fluent builder maps planning strategies onto the repo's search/ and
// model/ modules and hands back a ready-to-run Transform:
//
//   auto t = wht::Planner()
//                .strategy(wht::Strategy::kMeasure)
//                .threads(4)
//                .plan(16);
//   t.execute(x);
//
// Strategy -> machinery:
//   kEstimate    search::dp_search over model::CombinedModel — no execution,
//                the paper's measurement-free autotuning suggestion
//   kMeasure     search::dp_search over perf-measured cycles — the WHT
//                package autotuner (Figure 1's "best")
//   kExhaustive  search::exhaustive_search over measured cycles — ground
//                truth, guarded to small n
//   kSampled     search::model_pruned_search — random candidates ranked by
//                the combined model, best fraction measured (Section 4)
//   kAnneal      search::anneal_search over the combined model — local
//                search by subtree mutation, measurement-free like kEstimate
//                but not bound by DP's optimal-substructure assumption
//   kFixed       the caller's plan verbatim (grammar string or core::Plan)
//
// The model-driven strategies (kEstimate, kAnneal) price the backend that
// will execute the plan: with backend("simd") the instruction term uses the
// SIMD cost model at the runtime-dispatched vector width
// (model/simd_cost.hpp) instead of scalar counts.  The measuring strategies
// get this for free — candidates are timed through the chosen backend.
//
// A backend whose execution ignores the tree shape
// (ExecutorBackend::follows_plan() == false, e.g. "fused") has nothing to
// search: every strategy but kFixed returns Plan::iterative_radix(n,
// max_leaf) without pricing or measuring a candidate.
//
// Execution is delegated to an ExecutorBackend resolved by name from the
// BackendRegistry; threads(>1) defaults the backend to "parallel".
#pragma once

#include <cstdint>
#include <string>

#include "api/executor_backend.hpp"
#include "api/transform.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"
#include "search/local_search.hpp"

namespace whtlab::api {

/// Largest transform the planner will build: 2^26 doubles = 512 MiB.
inline constexpr int kMaxLog2Size = 26;

class Planner {
 public:
  Planner() = default;

  /// Planning strategy; default kEstimate (cheap and measurement-free).
  Planner& strategy(Strategy s);

  /// Executor backend by registry name ("generated", "parallel", "simd",
  /// "fused", or anything registered later).  Unset:
  /// "generated", or "parallel" when threads() > 1.
  Planner& backend(std::string name);

  /// Worker threads for the parallel backend.  Values > 1 switch the
  /// default backend to "parallel".
  Planner& threads(int count);

  /// Codelet flavour used by the "parallel" backend.
  Planner& codelets(core::CodeletBackend backend);

  /// Largest unrolled leaf the searches may use (1..core::kMaxUnrolled).
  Planner& max_leaf(int k);

  /// Cap on split arity explored by the DP strategies; -1 (default) = auto
  /// (4 for kEstimate; ternary to n = 12, then binary, for kMeasure — the
  /// WHT package's practice).  A cap k bounds the enumeration itself to
  /// O(n^(k-1)) candidates per size.  0 = all compositions: every one of the
  /// 2^(m-1) splits of each size m is priced, exponential in n.
  Planner& max_parts(int parts);

  /// Random candidates drawn by kSampled (default 200).
  Planner& samples(int count);

  /// Fraction of kSampled candidates measured after model ranking
  /// (default 0.1; 1.0 measures everything = no pruning).
  Planner& keep_fraction(double fraction);

  /// RNG seed for kSampled and kAnneal (default 1).
  Planner& seed(std::uint64_t seed);

  /// Annealing schedule for kAnneal (iterations, temperature, cooling).
  /// AnnealOptions::max_leaf is overridden by Planner::max_leaf().
  Planner& anneal_options(const search::AnnealOptions& options);

  /// Measured-cost annealing for kAnneal (default off): live measured
  /// cycles through the chosen backend become the Metropolis acceptance
  /// metric while the model cost demotes to a proposal filter — proposals
  /// the model prices beyond AnnealOptions::accept_filter_slack x the
  /// current plan go unmeasured.  Closes the model-vs-measured gap at the
  /// cost of one measurement per surviving proposal; pair with
  /// wisdom_file() so the price is paid once per machine.
  Planner& anneal_measured(bool enabled);

  /// Measurement protocol for the measuring strategies.
  Planner& measure_options(const perf::MeasureOptions& options);

  /// Pins the plan (switches strategy to kFixed).
  Planner& fixed(core::Plan plan);

  /// Pins the plan from its grammar string, e.g. "split[small[4],small[4]]".
  Planner& fixed(const std::string& grammar);

  /// Wisdom plan cache (api/wisdom.hpp): before searching, plan(n) consults
  /// `path` for a plan recorded under (cpu level, n, strategy, backend) and
  /// uses it verbatim on a hit (planning().from_wisdom reports this); on a
  /// miss the strategy runs and the winner is appended to the file — so
  /// kMeasure / kAnneal cost is paid once per machine.  Lookups and inserts
  /// go through the process-wide WisdomRegistry (in-memory, merge-on-save,
  /// atomic file replacement), so concurrent planners sharing a file do not
  /// lose each other's winners.  Empty (the default) disables the cache;
  /// kFixed never consults it.
  Planner& wisdom_file(std::string path);

  /// Plans WHT(2^n) and returns the executable Transform.  Throws
  /// std::invalid_argument on bad arguments (n out of range, unknown
  /// backend, kFixed size mismatch, kExhaustive size too large).
  Transform plan(int n) const;

  /// kFixed convenience: plans for the pinned plan's own size.
  Transform plan() const;

 private:
  core::Plan search_plan(int n, ExecutorBackend& backend, PlanningInfo& info) const;

  Strategy strategy_ = Strategy::kEstimate;
  std::string backend_;  ///< empty = auto
  int threads_ = 1;
  core::CodeletBackend codelets_ = core::CodeletBackend::kGenerated;
  int max_leaf_ = core::kMaxUnrolled;
  int max_parts_ = -1;  ///< -1 = auto
  int samples_ = 200;
  double keep_fraction_ = 0.1;
  std::uint64_t seed_ = 1;
  search::AnnealOptions anneal_{};
  bool anneal_measured_ = false;
  perf::MeasureOptions measure_{};
  core::Plan fixed_;
  std::string wisdom_file_;  ///< empty = no wisdom cache
};

}  // namespace whtlab::api
