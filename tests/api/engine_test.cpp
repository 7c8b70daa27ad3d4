// wht::Engine: shared plan cache, serve-time backend arbitration by request
// size, serving on the caller's thread only, and thread-safety of the whole
// serving surface (runs under the TSan CI job).
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/executor_backend.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "util/rng.hpp"

namespace whtlab::api {
namespace {

using util::random_vector;

/// Correct executor with a scripted per-vector cost, so arbitration
/// decisions are deterministic regardless of host ISA and measurement noise.
class ScriptedBackend final : public ExecutorBackend {
 public:
  ScriptedBackend(std::string name, double unit_cost)
      : name_(std::move(name)), unit_cost_(unit_cost) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x,
           std::ptrdiff_t stride) const override {
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
};

/// Two candidates ten times apart in price: "scripted-cheap" wins every
/// request.
void ensure_scripted_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("scripted-cheap")) return;
  registry.register_factory("scripted-cheap", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-cheap", 100.0);
  });
  registry.register_factory("scripted-costly", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-costly", 1000.0);
  });
}

EngineOptions scripted_options() {
  ensure_scripted_backends();
  EngineOptions options;
  options.backends = {"scripted-cheap", "scripted-costly"};
  options.measure_costs = false;  // compare the scripted models verbatim
  return options;
}

TEST(EngineArbitration, BrokenCandidateIsSkippedNotFatal) {
  ensure_scripted_backends();
  auto& registry = BackendRegistry::global();
  if (!registry.contains("scripted-broken")) {
    registry.register_factory(
        "scripted-broken", [](const BackendOptions&) -> std::unique_ptr<ExecutorBackend> {
          throw std::runtime_error("backend hardware went away");
        });
  }
  EngineOptions options;
  options.backends = {"scripted-cheap", "scripted-broken"};
  options.measure_costs = false;
  Engine engine(options);

  // The healthy candidate serves; the broken one is absent from the
  // ranking instead of poisoning the whole size.
  const auto decision = engine.arbitrate(8, 1);
  EXPECT_EQ(decision.backend, "scripted-cheap");
  EXPECT_EQ(decision.candidates.size(), 1u);
  auto x = random_vector(1u << 8, 7);
  engine.execute(8, x.data());  // must not throw
}

TEST(EngineArbitration, RoutingFollowsTheDecision) {
  Engine engine(scripted_options());
  const auto decision = engine.arbitrate(8, 1);
  EXPECT_EQ(decision.backend, "scripted-cheap");
  EXPECT_DOUBLE_EQ(decision.cost, 100.0);
  // Both candidates are priced and ranked cheapest-first.
  ASSERT_EQ(decision.candidates.size(), 2u);
  EXPECT_EQ(decision.candidates[0].backend, decision.backend);
  EXPECT_LE(decision.candidates[0].cost, decision.candidates[1].cost);

  auto single = random_vector(std::uint64_t{1} << 8, 1);
  engine.execute(8, single.data());
  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_backend.at("scripted-cheap"), 1u);
  EXPECT_EQ(stats.per_backend.count("scripted-costly"), 0u);
  EXPECT_EQ(stats.vectors, 1u);
  EXPECT_EQ(stats.singles, 1u);
  EXPECT_EQ(stats.batches, 0u);
}

TEST(EngineArbitration, BatchesPriceAtTheSingleAnchor) {
  // A batch of `count` vectors costs count x the single-vector anchor on
  // every candidate, so it goes wherever a single of its size goes.
  Engine engine;
  for (const int n : {1, 2, 6, 8, 10}) {
    const auto single = engine.arbitrate(n, 1);
    for (const std::size_t count : {2u, 16u, 64u}) {
      const auto batch = engine.arbitrate(n, count);
      EXPECT_EQ(batch.backend, single.backend) << n << " x " << count;
      EXPECT_DOUBLE_EQ(batch.cost, static_cast<double>(count) * single.cost)
          << n << " x " << count;
    }
  }
}

TEST(EngineArbitration, RealBackendsPriceEveryCandidate) {
  // With measured anchors the units are cycles for every candidate; the
  // winner must be the cheapest and all costs finite and positive.
  EngineOptions options;
  options.backends = {"generated", "simd", "fused"};
  Engine engine(options);
  for (const auto& [n, count] : {std::pair<int, std::size_t>{6, 16},
                                 std::pair<int, std::size_t>{12, 1}}) {
    const auto decision = engine.arbitrate(n, count);
    ASSERT_EQ(decision.candidates.size(), 3u) << n;
    EXPECT_EQ(decision.backend, decision.candidates[0].backend);
    for (const auto& candidate : decision.candidates) {
      EXPECT_GT(candidate.cost, 0.0) << candidate.backend;
      EXPECT_LE(decision.candidates[0].cost, candidate.cost);
    }
  }
}

TEST(Engine, ExecuteMatchesSharedTransformSerial) {
  EngineOptions options;
  options.backends = {"generated"};
  options.measure_costs = false;
  Engine engine(options);

  const auto transform = engine.transform(10, "generated");
  const auto input = random_vector(transform->size(), 3);
  auto reference = input;
  transform->execute(reference.data());

  auto served = input;
  engine.execute(10, served.data());
  EXPECT_EQ(served, reference);

  // The plan cache hands back the same shared instance.
  EXPECT_EQ(engine.transform(10, "generated").get(), transform.get());
}

/// Threads of this process right now (one /proc/self/task entry each).
std::size_t thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(Engine, StartsNoThread) {
  const std::size_t before = thread_count();
  Engine engine;
  for (const int n : {6, 10}) {
    const std::uint64_t size = std::uint64_t{1} << n;
    auto single = random_vector(size, 11);
    engine.execute(n, single.data());
    auto batch = random_vector(size * 4, 12);
    engine.execute_many(n, batch.data(), 4);
    auto async = random_vector(size, 13);
    auto done = engine.submit(n, async.data());
    EXPECT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    done.get();
    EXPECT_EQ(thread_count(), before) << "n = " << n;
  }
}

TEST(Engine, SubmitErrorsSurfaceThroughTheFuture) {
  EngineOptions options;
  options.backends = {"generated"};
  options.measure_costs = false;
  Engine engine(options);
  double dummy = 0.0;
  auto future = engine.submit(30, &dummy);  // planner rejects n > 26
  EXPECT_THROW(future.get(), std::invalid_argument);
  EXPECT_THROW(engine.submit(0, &dummy), std::invalid_argument);
}

TEST(Engine, RejectsOutOfRangeSizesBeforeShifting) {
  EngineOptions options;
  options.backends = {"generated"};
  options.measure_costs = false;
  Engine engine(options);
  double dummy = 0.0;
  for (const int n : {-1, 0, 27, 64}) {
    EXPECT_THROW(engine.execute(n, &dummy), std::invalid_argument) << n;
    EXPECT_THROW(engine.execute_many(n, &dummy, 2), std::invalid_argument) << n;
    EXPECT_THROW(engine.execute_many(n, &dummy, 2, 1), std::invalid_argument)
        << n;
  }
  EXPECT_EQ(engine.stats().vectors, 0u);
}

TEST(Engine, RejectsUnknownCandidates) {
  EngineOptions options;
  options.backends = {"no-such-backend"};
  EXPECT_THROW(Engine{options}, std::invalid_argument);
}

TEST(Engine, ConcurrentMixedServingIsCorrect) {
  EngineOptions options;
  options.backends = {"generated", "simd"};
  options.measure_costs = false;
  Engine engine(options);

  constexpr int kN = 9;
  const std::uint64_t size = 1u << kN;
  const auto input = random_vector(size, 5);
  auto reference = input;
  engine.transform(kN, engine.arbitrate(kN, 1).backend)->execute(reference.data());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t]() {
      std::vector<double> work(size);
      for (int i = 0; i < 5; ++i) {
        work = input;
        if ((t + i) % 2 == 0) {
          engine.execute(kN, work.data());
        } else {
          engine.submit(kN, work.data()).get();
        }
        if (work != reference) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.vectors, 8u * 5u);
}

}  // namespace
}  // namespace whtlab::api
