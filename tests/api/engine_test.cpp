// wht::Engine: shared plan cache, serve-time backend arbitration by request
// shape, serving on the caller's thread only, and thread-safety of the whole
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

/// Correct executor with a scripted cost shape, so arbitration decisions
/// are deterministic regardless of host ISA and measurement noise.
class ScriptedBackend final : public ExecutorBackend {
 public:
  ScriptedBackend(std::string name, double unit_cost, double batched_factor)
      : name_(std::move(name)),
        unit_cost_(unit_cost),
        batched_factor_(batched_factor) {}

  const std::string& name() const override { return name_; }

  void run(const core::Plan& plan, double* x, std::ptrdiff_t stride,
           ExecContext& /*ctx*/) const override {
    core::execute_node(plan.root(), x, stride,
                       core::codelet_table(core::CodeletBackend::kGenerated));
  }

  std::function<double(const core::Plan&)> cost_model() const override {
    const double cost = unit_cost_;
    return [cost](const core::Plan&) { return cost; };
  }

  double batch_factor(const core::Plan& /*plan*/, std::size_t count,
                      int /*threads*/) const override {
    return count >= 4 ? batched_factor_ : 1.0;
  }

 private:
  std::string name_;
  double unit_cost_;
  double batched_factor_;
};

/// Two candidates with crossing cost curves: "scripted-single" wins lone
/// vectors, "scripted-batch" wins once four or more coalesce.
void ensure_scripted_backends() {
  auto& registry = BackendRegistry::global();
  if (registry.contains("scripted-single")) return;
  registry.register_factory("scripted-single", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-single", 100.0, 1.0);
  });
  registry.register_factory("scripted-batch", [](const BackendOptions&) {
    return std::make_unique<ScriptedBackend>("scripted-batch", 1000.0, 0.01);
  });
}

EngineOptions scripted_options() {
  ensure_scripted_backends();
  EngineOptions options;
  options.backends = {"scripted-single", "scripted-batch"};
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
  options.backends = {"scripted-single", "scripted-broken"};
  options.measure_costs = false;
  Engine engine(options);

  // The healthy candidate serves; the broken one is absent from the
  // ranking instead of poisoning the whole size.
  const auto decision = engine.arbitrate(8, 1);
  EXPECT_EQ(decision.backend, "scripted-single");
  EXPECT_EQ(decision.candidates.size(), 1u);
  auto x = random_vector(1u << 8, 7);
  engine.execute(8, x.data());  // must not throw
}

TEST(EngineArbitration, PicksDifferentBackendsForDifferentShapes) {
  Engine engine(scripted_options());

  const auto single = engine.arbitrate(8, 1);
  EXPECT_EQ(single.backend, "scripted-single");
  EXPECT_DOUBLE_EQ(single.cost, 100.0);

  const auto batch = engine.arbitrate(8, 8);
  EXPECT_EQ(batch.backend, "scripted-batch");
  EXPECT_DOUBLE_EQ(batch.cost, 1000.0 * 8 * 0.01);

  // Both candidates are priced and ranked cheapest-first.
  ASSERT_EQ(batch.candidates.size(), 2u);
  EXPECT_EQ(batch.candidates[0].backend, batch.backend);
  EXPECT_LE(batch.candidates[0].cost, batch.candidates[1].cost);
}

TEST(EngineArbitration, RoutingFollowsTheDecision) {
  Engine engine(scripted_options());
  const std::uint64_t n = 1u << 8;
  auto single = random_vector(n, 1);
  engine.execute(8, single.data());
  auto batch = random_vector(n * 8, 2);
  engine.execute_many(8, batch.data(), 8);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.per_backend.at("scripted-single"), 1u);
  EXPECT_EQ(stats.per_backend.at("scripted-batch"), 8u);
  EXPECT_EQ(stats.vectors, 9u);
  EXPECT_EQ(stats.singles, 1u);
  EXPECT_EQ(stats.batches, 1u);
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
