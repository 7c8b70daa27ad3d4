// Engine live telemetry: every served request is recorded, and recording is
// observation only.
//
// Backends here execute the real transform and then busy-wait a
// *controllable* wall-clock delay, so their measured first-touch anchors
// and their live served cycles are both dominated by a knob the test owns.
// Degrading the fast backend at runtime models drift (frequency scaling,
// co-tenancy, cache pressure): the series must show it, but a backend that
// is slow yet correct is never quarantined — only serving failures trip
// the breaker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "api/engine.hpp"
#include "api/executor_backend.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

std::atomic<std::uint64_t> g_fast_spin_ns{30000};
std::atomic<std::uint64_t> g_slow_spin_ns{120000};

/// Correct executor whose runtime is a test-owned busy-wait: the spin
/// dwarfs the tiny transform, so measured cycles track the knob.
class SpinBackend final : public ExecutorBackend {
 public:
  SpinBackend(std::string name, std::atomic<std::uint64_t>* spin_ns)
      : name_(std::move(name)), spin_ns_(spin_ns) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(spin_ns_->load(std::memory_order_relaxed));
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t>* spin_ns_;
};

void ensure_spin_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("drift-fast")) return;
  registry.register_factory("drift-fast", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-fast", &g_fast_spin_ns);
  });
  registry.register_factory("drift-slow", [](const BackendOptions&) {
    return std::make_unique<SpinBackend>("drift-slow", &g_slow_spin_ns);
  });
}

EngineOptions spin_options() {
  ensure_spin_backends();
  EngineOptions options;
  options.backends = {"drift-fast", "drift-slow"};
  options.measure_costs = true;  // anchors in cycles, like the live series
  options.measure.warmup = 1;
  options.measure.repetitions = 3;
  options.measure.inner_loop = 1;
  options.telemetry_decay_window = 0;  // lifetime stats: deterministic counts
  return options;
}

class EngineTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fast_spin_ns.store(30000);   // 30 us: wins arbitration while healthy
    g_slow_spin_ns.store(120000);  // 120 us: the runner-up
  }
};

TEST_F(EngineTelemetryTest, RecordsTelemetryPerSeries) {
  Engine engine(spin_options());
  const int n = 4;
  for (int i = 0; i < 5; ++i) {
    auto x = random_vector(std::size_t{1} << n, 10 + i);
    engine.execute(n, x.data());
  }
  std::uint64_t singles = 0;
  for (const auto& series : engine.telemetry_snapshot()) {
    EXPECT_EQ(series.n, n);
    if (!series.batch) singles += series.stats.count;
    if (series.stats.count > 0) {
      EXPECT_GT(series.stats.mean(), 0.0);
      EXPECT_LE(series.stats.percentile(0.5), series.stats.percentile(0.99));
    }
  }
  EXPECT_EQ(singles, 5u) << "every served single must be recorded";
}

TEST_F(EngineTelemetryTest, SlowButCorrectBackendIsNeverQuarantined) {
  EngineOptions options = spin_options();
  options.quarantine_strikes = 1;  // the breaker is armed ...
  options.probation_ms = 60;
  Engine engine(options);
  const int n = 4;
  ASSERT_EQ(engine.arbitrate(n, 1).backend, "drift-fast");
  // ... and the fast backend degrades 20x, but every answer stays correct.
  g_fast_spin_ns.store(600000);
  for (int i = 0; i < 10; ++i) {
    auto x = random_vector(std::size_t{1} << n, 120 + i);
    engine.execute(n, x.data());
  }
  const auto stats = engine.stats();
  EXPECT_TRUE(stats.quarantined.empty())
      << "slowness is observed, never punished";
  EXPECT_TRUE(stats.quarantine_trips.empty());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(engine.arbitrate(n, 1).backend, "drift-fast")
      << "arbitration prices from the static first-touch anchors";
}

}  // namespace
}  // namespace whtlab::api
