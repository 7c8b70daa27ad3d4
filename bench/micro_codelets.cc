// Ablation: template-unrolled vs generated straight-line codelets.
//
// The codelet backend is a design choice; this bench quantifies it per
// codelet size.  Expect near-identical times at -O2 (the
// compiler fully unrolls the template version), which is the justification
// for treating the two backends as interchangeable.
#include <benchmark/benchmark.h>

#include "core/codelet.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

void bench_codelet(benchmark::State& state, core::CodeletBackend backend) {
  const int k = static_cast<int>(state.range(0));
  const std::uint64_t m = std::uint64_t{1} << k;
  util::AlignedBuffer x(m);
  util::Rng rng(7);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto fn = core::codelet(k, backend);
  for (auto _ : state) {
    fn(x.data(), 1);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * m));  // butterflies
}

void BM_TemplateCodelet(benchmark::State& state) {
  bench_codelet(state, core::CodeletBackend::kTemplate);
}

void BM_GeneratedCodelet(benchmark::State& state) {
  bench_codelet(state, core::CodeletBackend::kGenerated);
}

BENCHMARK(BM_TemplateCodelet)->DenseRange(1, core::kMaxUnrolled);
BENCHMARK(BM_GeneratedCodelet)->DenseRange(1, core::kMaxUnrolled);

// Strided access cost: the same codelet at unit vs large stride.
void BM_CodeletStride(benchmark::State& state) {
  const int k = 4;
  const auto stride = static_cast<std::ptrdiff_t>(state.range(0));
  util::AlignedBuffer x(static_cast<std::size_t>((16 - 1) * stride + 1));
  x.fill(1.0);
  const auto fn = core::codelet(k, core::CodeletBackend::kGenerated);
  for (auto _ : state) {
    fn(x.data(), stride);
    benchmark::DoNotOptimize(x.data());
  }
}

BENCHMARK(BM_CodeletStride)->RangeMultiplier(8)->Range(1, 4096);

}  // namespace

BENCHMARK_MAIN();
