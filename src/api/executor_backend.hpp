// Pluggable execution backends for the wht::Transform façade.
//
// The repo grew hand-wired ways to run a plan — core::execute (plain
// interpreter over either codelet table), core::execute_parallel (fork-join
// over the root split), the SIMD walk and the fused schedule engine.
// ExecutorBackend puts them behind one polymorphic interface so a Transform
// can own "how to run" as a value, and BackendRegistry makes the set
// open-ended: future GPU / sharded backends register under a string key and
// become reachable from the Planner without touching callers.
//
// Execution contract: a backend is an immutable recipe.  run()/run_many()
// are const and re-entrant — one instance may execute any number of plans
// from any number of threads at once — and a call writes nothing but the
// data it was handed.  Work buffers live on the call's own stack (the
// "simd" interleave tile).  Backends may hold derived immutable state built
// at construction (the "fused" backend's lowered schedules); they must not
// keep per-call state in members.  The paper's I term is not an execution
// output: core::count_ops(plan) counts it from the plan alone.
//
// Built-in keys (always registered):
//   "generated"     sequential interpreter, build-time generated codelets
//   "parallel"      fork-join executor honouring BackendOptions::threads
//   "simd"          vectorized tree walk + batch-interleaved run_many with
//                   runtime CPUID dispatch (AVX-512F / AVX2 / scalar; see
//                   simd/simd_executor.hpp); threads fan out batch chunks
//   "fused"         cache-blocked stage-fused schedule engine: WHT(2^n)
//                   runs one flat blocked schedule fixed by n and the host
//                   cache geometry (core/schedule.hpp), whatever the plan,
//                   on the fused SIMD kernels (simd/fused_executor.hpp) —
//                   the memory-bound big-n engine; threads fan out batch
//                   chunks
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/codelet.hpp"
#include "core/plan.hpp"
#include "perf/measure.hpp"

namespace whtlab::api {

/// Knobs a factory may honour when instantiating a backend.
struct BackendOptions {
  int threads = 1;  ///< worker threads ("parallel", "simd", "fused" batches)
  core::CodeletBackend codelets = core::CodeletBackend::kGenerated;
};

/// One way of running a plan.  Instances are immutable after construction:
/// run() and run_many() are const, re-entrant, and safe to invoke
/// concurrently on distinct data.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// Registry key this instance was created under.
  virtual const std::string& name() const = 0;

  /// Transforms the plan.size() elements x[0], x[stride], ... in place.
  virtual void run(const core::Plan& plan, double* x,
                   std::ptrdiff_t stride = 1) const = 0;

  /// Batched transform: `count` vectors, vector v at x + v*dist.  The
  /// default runs them one by one; backends with a faster batch shape
  /// override it ("simd" interleaves vectors into SIMD lanes, "parallel",
  /// "simd" and "fused" fan vectors out across threads).  Callers guarantee
  /// |dist| >= size.
  virtual void run_many(const core::Plan& plan, double* x, std::size_t count,
                        std::ptrdiff_t dist) const {
    for (std::size_t v = 0; v < count; ++v) {
      run(plan, x + static_cast<std::ptrdiff_t>(v) * dist, 1);
    }
  }

  /// Doubles retired per arithmetic instruction on this backend's hot path
  /// (1 for scalar backends).  The Planner's model-driven strategies feed
  /// this into CombinedModel::vector_width so candidates are priced for the
  /// backend that will run them — custom vectorized backends get correct
  /// pricing by overriding this, not by being named "simd".
  virtual int vector_width() const { return 1; }

  /// Whether the plan's tree shape decides how this backend executes.  A
  /// backend returning false runs every plan of one size identically, so
  /// the Planner has nothing to search for it: every searching strategy
  /// returns Plan::iterative_radix(n, max_leaf) with no evaluation ("fused",
  /// whose schedule is a function of n and the host cache geometry).
  virtual bool follows_plan() const { return true; }

  /// Optional full replacement for the model-driven pricing of the Planner
  /// and the Engine's arbiter: a callable mapping a plan to this backend's
  /// model cost, or an empty function (the default, kept by every built-in)
  /// to use the CombinedModel at vector_width().  Custom backends whose cost
  /// the tree-walk model does not describe override this.
  virtual std::function<double(const core::Plan&)> cost_model() const {
    return {};
  }
};

/// String-keyed factory table.  The global() registry is pre-populated with
/// the built-in backends; registration is explicit (no static-initializer
/// self-registration, which a static library would silently drop).
class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ExecutorBackend>(const BackendOptions&)>;

  /// Process-wide registry holding the built-ins.  Thread-safe.
  static BackendRegistry& global();

  /// Registers `factory` under `name`.  Throws std::invalid_argument if the
  /// name is already taken (built-ins cannot be shadowed).
  void register_factory(const std::string& name, Factory factory);

  /// Instantiates the backend registered under `name`.  Throws
  /// std::invalid_argument listing the known names when `name` is unknown.
  std::unique_ptr<ExecutorBackend> create(const std::string& name,
                                          const BackendOptions& options = {}) const;

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  BackendRegistry();  ///< registers the built-ins

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Runs the perf measurement protocol (warmup, batched repetitions,
/// master-copy restore; see perf/measure.hpp) with `backend` as the
/// execution engine, so e.g. "parallel" is timed on its parallel code path.
/// MeasureOptions::backend is ignored; repetitions must be >= 1.  Used by
/// Transform::measure and by the Planner's measuring strategies (candidates
/// are timed on the backend the planned Transform will actually use).
perf::MeasureResult measure_with_backend(const ExecutorBackend& backend,
                                         const core::Plan& plan,
                                         const perf::MeasureOptions& options = {});

}  // namespace whtlab::api

/// Terse spelling used throughout examples and docs: wht::Planner, ...
namespace wht = whtlab::api;
