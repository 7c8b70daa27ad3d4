#include "api/executor_backend.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/planner.hpp"
#include "core/executor.hpp"
#include "core/parallel_executor.hpp"
#include "core/schedule.hpp"
#include "simd/fused_executor.hpp"
#include "simd/simd_executor.hpp"
#include "util/parallel_chunks.hpp"

namespace whtlab::api {

namespace {

/// Sequential interpreter over the build-time generated codelets.
class SequentialBackend final : public ExecutorBackend {
 public:
  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
  }

 private:
  std::string name_ = "generated";
};

/// Fork-join executor over the root split.
class ParallelBackend final : public ExecutorBackend {
 public:
  ParallelBackend(int threads, core::CodeletBackend codelets)
      : threads_(threads), codelets_(codelets) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    core::execute_parallel_strided(plan, x, stride, threads_, codelets_);
  }

  /// Batches parallelize across vectors, not within one transform: each
  /// worker runs whole transforms sequentially (no per-factor join points),
  /// the ROADMAP's batch-parallel execute_many.
  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist) const override {
    const auto& table = core::codelet_table(codelets_);
    util::parallel_chunks(
        count, threads_, [&plan, &table, x, dist](std::uint64_t begin,
                                                  std::uint64_t end) {
          for (std::uint64_t v = begin; v < end; ++v) {
            core::execute_node(plan.root(),
                               x + static_cast<std::ptrdiff_t>(v) * dist, 1,
                               table);
          }
        });
  }

 private:
  std::string name_ = "parallel";
  int threads_;
  core::CodeletBackend codelets_;
};

/// Vectorized tree walk with runtime CPUID dispatch; batches run
/// interleaved in SIMD lanes (simd/simd_executor.hpp).
class SimdBackend final : public ExecutorBackend {
 public:
  explicit SimdBackend(int threads) : threads_(threads) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    simd::execute(plan, x, stride);
  }

  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist) const override {
    simd::execute_many(plan, x, count, dist, threads_);
  }

  int vector_width() const override {
    return simd::vector_width(simd::active_level());
  }

 private:
  std::string name_ = "simd";
  int threads_;
};

/// Cache-blocked stage-fused engine.  WHT(2^n) runs one flat blocked
/// schedule, a function of n and the host cache geometry alone: the plan
/// passed to run() contributes only its size.  Every schedule is lowered at
/// construction into a table indexed by n, so a run looks its schedule up
/// without a lock.  Execution is the fused SIMD kernels with
/// scalar/strided fallback.
class FusedBackend final : public ExecutorBackend {
 public:
  explicit FusedBackend(int threads) : threads_(threads) {
    const core::BlockingConfig blocking = simd::detect_blocking();
    for (int n = 1; n <= kMaxLog2Size; ++n) {
      schedules_[static_cast<std::size_t>(n - 1)] = core::lower_size(n, blocking);
    }
  }

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    simd::execute_fused(schedule_for(plan), x, stride);
  }

  void run_many(const core::Plan& plan, double* x, std::size_t count,
                std::ptrdiff_t dist) const override {
    simd::execute_fused_many(schedule_for(plan), x, count, dist, threads_);
  }

  int vector_width() const override {
    return simd::vector_width(simd::active_level());
  }

  bool follows_plan() const override { return false; }

 private:
  const core::Schedule& schedule_for(const core::Plan& plan) const {
    const int n = plan.log2_size();
    if (n < 1 || n > kMaxLog2Size) {
      throw std::invalid_argument("fused: n out of [1, " +
                                  std::to_string(kMaxLog2Size) + "], got " +
                                  std::to_string(n));
    }
    return schedules_[static_cast<std::size_t>(n - 1)];
  }

  std::string name_ = "fused";
  int threads_;
  std::array<core::Schedule, kMaxLog2Size> schedules_;
};

}  // namespace

struct BackendRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Factory> factories;
};

BackendRegistry::BackendRegistry() : impl_(std::make_shared<Impl>()) {
  impl_->factories["generated"] = [](const BackendOptions&) {
    return std::make_unique<SequentialBackend>();
  };
  impl_->factories["parallel"] = [](const BackendOptions& options) {
    return std::make_unique<ParallelBackend>(std::max(options.threads, 1),
                                             options.codelets);
  };
  impl_->factories["simd"] = [](const BackendOptions& options) {
    return std::make_unique<SimdBackend>(std::max(options.threads, 1));
  };
  impl_->factories["fused"] = [](const BackendOptions& options) {
    return std::make_unique<FusedBackend>(std::max(options.threads, 1));
  };
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_factory(const std::string& name, Factory factory) {
  if (name.empty()) throw std::invalid_argument("backend name must be non-empty");
  if (!factory) throw std::invalid_argument("backend factory must be callable");
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->factories.emplace(name, std::move(factory)).second) {
    throw std::invalid_argument("backend '" + name + "' is already registered");
  }
}

std::unique_ptr<ExecutorBackend> BackendRegistry::create(
    const std::string& name, const BackendOptions& options) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto it = impl_->factories.find(name);
    if (it != impl_->factories.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const auto& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("unknown executor backend '" + name +
                                "' (registered: " + known + ")");
  }
  auto backend = factory(options);
  if (!backend) {
    throw std::runtime_error("backend factory for '" + name + "' returned null");
  }
  return backend;
}

bool BackendRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->factories.count(name) != 0;
}

std::vector<std::string> BackendRegistry::names() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) out.push_back(name);
  return out;  // std::map iterates sorted
}

perf::MeasureResult measure_with_backend(const ExecutorBackend& backend,
                                         const core::Plan& plan,
                                         const perf::MeasureOptions& options) {
  // The protocol (warmup, probe-sized batches, master-copy restore) lives
  // once, in perf::measure_run; this merely plugs the backend in as the
  // engine so e.g. "parallel" and "simd" are timed on their own code paths.
  return perf::measure_run([&backend, &plan](double* x) { backend.run(plan, x); },
                           plan.size(), options);
}

}  // namespace whtlab::api
