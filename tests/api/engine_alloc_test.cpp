// wht::Engine's warmed serve path allocates nothing: routing indexes the
// fixed (n, backend) cell table and the counters are atomics, so the only
// heap allocation left on a request is the breaker's input snapshot, and
// only when quarantine is armed.
//
// The count comes from replacing the global operator new for this test
// binary with a malloc-backed one that tallies calls per thread.  Sanitizer
// builds bring their own allocator interposition, so the replacement is
// compiled out there and the tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "api/engine.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WHTLAB_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WHTLAB_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef WHTLAB_COUNT_ALLOCATIONS
#define WHTLAB_COUNT_ALLOCATIONS 1
#endif

#if WHTLAB_COUNT_ALLOCATIONS
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace whtlab::api {
namespace {

constexpr int kCalls = 1000;

/// Allocations made on the calling thread by `calls` serves of each shape
/// the daemon and the in-process callers use: execute_many(n, x, count,
/// dist) with count 1 and count 16, plus execute(n, x) and
/// execute_many(n, x, 16).  Every call starts from the
/// same pristine input, so no value ever overflows into a verify_finite
/// strike.
std::uint64_t serve_allocations(Engine& engine, int n, int calls) {
#if WHTLAB_COUNT_ALLOCATIONS
  const std::size_t size = std::size_t{1} << n;
  const auto dist = static_cast<std::ptrdiff_t>(size);
  const std::vector<double> input = util::random_vector(size * 16, 7 + n);
  std::vector<double> x(input.size());
  const auto serve_all = [&](int repeat) {
    for (int i = 0; i < repeat; ++i) {
      std::memcpy(x.data(), input.data(), size * sizeof(double));
      engine.execute_many(n, x.data(), 1, dist);
      std::memcpy(x.data(), input.data(), x.size() * sizeof(double));
      engine.execute_many(n, x.data(), 16, dist);
      std::memcpy(x.data(), input.data(), size * sizeof(double));
      engine.execute(n, x.data());
      std::memcpy(x.data(), input.data(), x.size() * sizeof(double));
      engine.execute_many(n, x.data(), 16);
    }
  };
  serve_all(8);  // first touch: plans, anchors, telemetry series
  const std::uint64_t before = t_allocations;
  serve_all(calls);
  return t_allocations - before;
#else
  (void)engine;
  (void)n;
  (void)calls;
  return 0;
#endif
}

TEST(EngineAllocation, WarmServePathAllocatesNothing) {
  if (!WHTLAB_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  Engine engine;  // default options: every serving built-in, telemetry on
  for (const int n : {6, 10}) {
    EXPECT_EQ(serve_allocations(engine, n, kCalls), 0u) << "n=" << n;
  }
}

TEST(EngineAllocation, WarmFusedServePathAllocatesNothing) {
  if (!WHTLAB_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  // "fused" alone: its schedule lookup is an index into a table lowered at
  // construction, so a warmed request neither locks nor allocates.
  EngineOptions options;
  options.backends = {"fused"};
  Engine engine(options);
  for (const int n : {6, 10}) {
    EXPECT_EQ(serve_allocations(engine, n, kCalls), 0u) << "n=" << n;
  }
}

TEST(EngineAllocation, ArmedBreakerAllocatesOnlyTheInputSnapshot) {
  if (!WHTLAB_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer allocator";
  // The daemon's defaults.  "generated" is left out of the candidates so
  // every request is served by a backend the breaker guards (the reference
  // backend itself takes no snapshot).
  EngineOptions options;
  options.backends = {"simd", "fused"};
  options.quarantine_strikes = 3;
  options.verify_finite = true;
  Engine engine(options);
  for (const int n : {6, 10}) {
    EXPECT_EQ(serve_allocations(engine, n, kCalls), 4u * kCalls)
        << "n=" << n << ": one snapshot per request, nothing else";
    EXPECT_EQ(engine.stats().failures, 0u);
  }
}

}  // namespace
}  // namespace whtlab::api
