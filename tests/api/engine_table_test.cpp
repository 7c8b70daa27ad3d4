// wht::Engine's fixed (n, backend) cell table: what transform() accepts, and
// counters that stay exact while eight threads serve through a backend whose
// quarantine is tripped and cleared under them (runs under the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/executor_backend.hpp"
#include "api/planner.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

TEST(EngineTable, TransformNeedsAColumnAndAPlannableSize) {
  EngineOptions options;
  options.backends = {"simd"};
  options.measure_costs = false;
  Engine engine(options);

  EXPECT_NE(engine.transform(6, "simd"), nullptr);
  EXPECT_NE(engine.transform(6, "generated"), nullptr)
      << "the quarantine fallback has a column of its own";
  EXPECT_NE(engine.transform(kMaxLog2Size, "simd"), nullptr);
  // Registered, but neither a candidate nor the fallback: no column.
  EXPECT_THROW(engine.transform(6, "fused"), std::invalid_argument);
  EXPECT_THROW(engine.transform(6, "no-such-backend"), std::invalid_argument);
  EXPECT_THROW(engine.transform(0, "simd"), std::invalid_argument);
  EXPECT_THROW(engine.transform(kMaxLog2Size + 1, "simd"),
               std::invalid_argument);
  EXPECT_THROW(engine.arbitrate(kMaxLog2Size + 1), std::invalid_argument);
  EXPECT_THROW(engine.arbitrate(0), std::invalid_argument);
}

std::atomic<bool> g_churn_fail{false};

/// Correct executor with a scripted cost that throws while g_churn_fail is
/// set, so a controller thread can trip and heal it at will.
class ChurnBackend final : public ExecutorBackend {
 public:
  ChurnBackend(std::string name, double unit_cost, bool flaky)
      : name_(std::move(name)), unit_cost_(unit_cost), flaky_(flaky) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
    if (flaky_ && g_churn_fail.load(std::memory_order_relaxed)) {
      throw std::runtime_error("churn backend failed");
    }
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
  }

  std::function<double(const core::Plan&)> cost_model() const override {
    const double cost = unit_cost_;
    return [cost](const core::Plan&) { return cost; };
  }

 private:
  std::string name_;
  double unit_cost_;
  bool flaky_;
};

void ensure_churn_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("churn-fast")) return;
  registry.register_factory("churn-fast", [](const BackendOptions&) {
    return std::make_unique<ChurnBackend>("churn-fast", 10.0, true);
  });
  registry.register_factory("churn-slow", [](const BackendOptions&) {
    return std::make_unique<ChurnBackend>("churn-slow", 1000.0, false);
  });
}

/// Polls `done` every 100 us for up to 20 s (TSan builds are slow).
template <typename Predicate>
bool wait_for(Predicate done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(EngineTable, CountersAddUpUnderQuarantineChurn) {
  ensure_churn_backends();
  g_churn_fail.store(false);
  EngineOptions options;
  options.backends = {"churn-fast", "churn-slow"};
  options.measure_costs = false;
  options.quarantine_strikes = 2;
  options.probation_ms = 1;
  Engine engine(options);

  constexpr int kN = 6;
  constexpr std::size_t kBatch = 4;
  const std::size_t size = std::size_t{1} << kN;
  const auto input = random_vector(size * kBatch, 21);
  auto reference = input;
  Planner().backend("generated").plan(kN).execute_many(reference.data(),
                                                       kBatch);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> vectors{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < 8; ++t) {
    servers.emplace_back([&, t] {
      std::vector<double> x(input.size());
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        x = input;
        std::size_t count = 1;
        switch ((t + i) % 4) {
          case 0: engine.execute(kN, x.data()); break;
          case 1: engine.execute_many(kN, x.data(), 1); break;
          case 2:
            count = kBatch;
            engine.execute_many(kN, x.data(), count);
            break;
          default:
            count = kBatch;
            engine.execute_many(kN, x.data(), count,
                                static_cast<std::ptrdiff_t>(size));
        }
        if (std::memcmp(x.data(), reference.data(),
                        count * size * sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
        requests.fetch_add(1);
        vectors.fetch_add(count);
      }
    });
  }

  // Three trip/clear cycles under live traffic, polling stats() throughout.
  const auto trips = [&] {
    const auto stats = engine.stats();
    const auto it = stats.quarantine_trips.find("churn-fast");
    return it == stats.quarantine_trips.end() ? std::uint64_t{0} : it->second;
  };
  std::string stuck;
  for (int cycle = 1; cycle <= 3 && stuck.empty(); ++cycle) {
    const std::uint64_t before = trips();
    g_churn_fail.store(true);
    if (!wait_for([&] { return trips() > before; })) {
      stuck = "cycle " + std::to_string(cycle) + " never tripped";
    }
    g_churn_fail.store(false);
    if (stuck.empty() &&
        !wait_for([&] { return engine.stats().quarantined.empty(); })) {
      stuck = "cycle " + std::to_string(cycle) + " never cleared";
    }
  }
  stop.store(true);
  for (auto& server : servers) server.join();
  ASSERT_TRUE(stuck.empty()) << stuck;

  const auto stats = engine.stats();
  EXPECT_EQ(mismatches.load(), 0) << "every fallback must stay bit-exact";
  EXPECT_EQ(stats.singles + stats.batches, requests.load());
  EXPECT_EQ(stats.vectors, vectors.load());
  std::uint64_t per_backend = 0;
  for (const auto& [backend, served] : stats.per_backend) per_backend += served;
  EXPECT_EQ(stats.vectors, per_backend);
  EXPECT_GE(stats.quarantine_trips.at("churn-fast"), 3u);
  EXPECT_GE(stats.failures, 3u);
  EXPECT_GT(stats.per_backend.at("generated"), 0u) << "fallbacks served";
}

}  // namespace
}  // namespace whtlab::api
