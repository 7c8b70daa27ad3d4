// kernel_large: one caller thread runs fused Transforms at n = 14, 18, 22,
// 26 -- in L1/L2, at one core's L2 share, inside L3, and at >= 4x L3.  A
// round does 2^(26-n) transforms of each size so every size contributes
// comparable time; only the execute() calls are timed (the input refill
// before each call is not).  Also the kernel-layer probe: simd on the same
// plans, the simd batch path, and a STREAM-style copy for the roofline.
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/schedule.hpp"
#include "simd/cpu_features.hpp"
#include "simd/fused_executor.hpp"

namespace perfbench {

namespace {

constexpr int kSizes[] = {14, 18, 22, 26};
constexpr int kTop = 26;

/// kSizes with 2^(kTop-n) transforms of each per round; distinct inputs
/// where they are cheap, one at the 512 MiB size (checked in place).
std::vector<ShapeData> make_data(std::uint64_t seed) {
  std::vector<ShapeSpec> specs;
  for (const int n : kSizes) {
    specs.push_back({.n = n,
                     .count = 1,
                     .per_round = std::uint64_t{1} << (kTop - n),
                     .inputs = n <= 18 ? 4u : (n < kTop ? 2u : 1u),
                     .in_place = n == kTop});
  }
  return make_shapes(specs, seed, 1000);
}

std::vector<wht::Transform> plan_fused(Tracer* tracer) {
  std::vector<wht::Transform> out;
  for (const int n : kSizes) {
    Tracer::Scope span(tracer, tracer != nullptr
                                   ? tracer->intern("planner.plan.fused.n" +
                                                    std::to_string(n))
                                   : 0);
    out.push_back(
        wht::Planner().strategy(wht::Strategy::kEstimate).backend("fused").plan(n));
  }
  return out;
}

std::vector<std::uint32_t> span_ids(Tracer* tracer, const std::string& prefix) {
  std::vector<std::uint32_t> ids;
  for (const int n : kSizes) {
    ids.push_back(tracer != nullptr
                      ? tracer->intern(prefix + ".n" + std::to_string(n))
                      : 0);
  }
  return ids;
}

/// `transforms` over rounds of every size (a round is a slice) for
/// `seconds`, or a single round.
void run_transforms(const std::vector<wht::Transform>& transforms,
                    std::vector<ShapeData>& data, std::uint64_t seed,
                    double seconds, const Rounds& rounds, Phase& phase,
                    Tracer* tracer, const std::string& span_prefix) {
  run_rounds(data, rounds,
             [&](std::size_t s, double* x) { transforms[s].execute(x); },
             seed, seconds, phase, tracer, span_ids(tracer, span_prefix));
}

/// Full-array sweeps of the lowered fused schedule.  Each sweep reads and
/// writes every double once, so the computed (not measured) traffic is
/// 16 bytes per element per sweep.
int fused_sweeps(int n) {
  return whtlab::core::sweep_count(
      whtlab::core::lower_size(n, whtlab::simd::detect_blocking()));
}

void set_fused_layer(Result& result, const Tracer& tracer) {
  const auto stats = tracer.stats();
  for (const int n : kSizes) {
    const std::string k = ".n" + std::to_string(n);
    const auto plan = stats.find("planner.plan.fused" + k);
    if (plan != stats.end()) {
      result.set(result.layer, "planner.plan_s.fused" + k,
                 plan->second.total_ns * 1e-9 / static_cast<double>(plan->second.count),
                 "s", plan->second.count);
    }
    const auto exec = stats.find("transform.execute.fused" + k);
    if (exec == stats.end()) continue;
    const double ns_per_elem =
        exec->second.total_ns /
        (static_cast<double>(exec->second.count) * static_cast<double>(1ULL << n));
    const int sweeps = fused_sweeps(n);
    result.set(result.layer, "kernel.fused" + k + ".ns_per_elem", ns_per_elem,
               "ns/elem", exec->second.count);
    result.set(result.layer, "kernel.fused" + k + ".sweeps", sweeps, "count");
    result.set(result.layer, "kernel.fused" + k + ".gbps_computed",
               sweeps * 16.0 / ns_per_elem, "GB/s", exec->second.count);
  }
}

/// The probe half that every workload's traced run needs: simd on the
/// fused plans, the simd batch path, and the copy-bandwidth roofline input.
/// `data` must hold the kTop buffers (reused as the copy arrays).
void probe_simd_and_stream(Tracer& tracer, Result& result,
                           const std::vector<wht::Transform>& fused,
                           std::vector<ShapeData>& data, std::uint64_t seed) {
  std::vector<wht::Transform> simd;
  for (const auto& t : fused) {
    simd.push_back(wht::Planner().backend("simd").fixed(t.plan()).plan());
  }
  Phase phase;
  run_transforms(simd, data, mix(seed, 3), 0.0, {.divide = 4, .keep_samples = false}, phase,
                 &tracer, "transform.execute.simd");
  const auto stats = tracer.stats();
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    const int n = kSizes[i];
    const auto& st = stats.at("transform.execute.simd.n" + std::to_string(n));
    result.set(result.layer, "kernel.simd.n" + std::to_string(n) + ".ns_per_elem",
               st.total_ns / (static_cast<double>(st.count) * static_cast<double>(1ULL << n)),
               "ns/elem", st.count);
  }

  // The batch path of engine_small's and whtd_open's batches: 16 x n=8.
  {
    constexpr int kN = 8;
    constexpr std::size_t kCount = 16;
    const auto batch = wht::Planner().backend("simd").plan(kN);
    const auto input = seeded_vector(kCount << kN, seed, 4);
    std::vector<double> work(input.size());
    LatencyRecorder ns;
    const auto id = tracer.intern("transform.execute_many.simd.n8x16");
    for (int r = 0; r < 4000; ++r) {
      std::memcpy(work.data(), input.data(), work.size() * sizeof(double));
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(&tracer, id, static_cast<std::uint64_t>(r));
        batch.execute_many(work.data(), kCount);
      }
      ns.add(static_cast<double>(now_ns() - t0));
    }
    result.set(result.layer, "kernel.simd.batch16.n8.ns_per_elem",
               ns.median() / static_cast<double>(kCount << kN), "ns/elem", ns.count());
  }

  // STREAM-style copy between the two kTop-sized arrays (>= 4x the LLC on
  // hosts with an LLC up to 128 MiB; both sizes go into the record).
  {
    ShapeData& top = data.back();
    std::vector<double>& a = top.pool[0];
    std::vector<double>& b = top.work;
    const double bytes = 2.0 * static_cast<double>(a.size() * sizeof(double));
    const auto id = tracer.intern("mem.copy");
    std::vector<double> gbps;
    for (int r = 0; r < 5; ++r) {
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(&tracer, id, static_cast<std::uint64_t>(r));
        std::memcpy(r % 2 == 0 ? b.data() : a.data(), r % 2 == 0 ? a.data() : b.data(),
                    a.size() * sizeof(double));
      }
      gbps.push_back(bytes / static_cast<double>(now_ns() - t0));
    }
    result.set(result.layer, "mem.stream_gbps", median(gbps), "GB/s", gbps.size());
    result.meta["stream_array_mib"] = std::to_string(a.size() * sizeof(double) >> 20);
  }
  if (result.layer.count("kernel.fused.n26.gbps_computed") != 0) {
    result.set(result.layer, "kernel.fused.n26.bw_frac",
               result.layer["kernel.fused.n26.gbps_computed"].value /
                   result.layer["mem.stream_gbps"].value,
               "ratio");
  }
}

}  // namespace

void run_kernel_large(const Options& options, Result& result, Tracer* tracer) {
  std::vector<wht::Transform> fused;
  std::vector<double> setups;
  for (int i = 0; i < (tracer != nullptr ? 1 : kSetups); ++i) {
    fused.clear();
    const std::uint64_t t0 = now_ns();
    fused = plan_fused(tracer);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  auto data = make_data(options.seed);

  Phase untraced, traced;
  run_transforms(fused, data, mix(options.seed, 1),
                 tracer != nullptr ? options.seconds / 2 : options.seconds, {}, untraced,
                 nullptr, "");
  result.set(result.info, "rss_mb", self_usage().hwm_mib, "MiB");
  if (tracer == nullptr) {
    result.set_phase_metrics(untraced, setups);
    result.set(result.e2e, "rss_mb", result.info["rss_mb"].value, "MiB");
  } else {
    run_transforms(fused, data, mix(options.seed, 2), options.seconds / 2, {}, traced, tracer,
                   "transform.execute.fused");
    result.attempted += untraced.attempted + traced.attempted;
    result.failed += untraced.failed + traced.failed;
    set_trace_overhead(result, untraced, traced);
    set_proc_metrics(result, untraced);
    set_fused_layer(result, *tracer);
  }

  // Correctness, outside the timed window.
  std::vector<whtlab::core::Plan> plans;
  for (const auto& t : fused) plans.push_back(t.plan());
  check_shapes(result, data, plans);

  if (tracer != nullptr) probe_simd_and_stream(*tracer, result, fused, data, options.seed);
}

void probe_kernels(Tracer& tracer, Result& result, std::uint64_t seed) {
  const auto fused = plan_fused(&tracer);
  auto data = make_data(seed);
  Phase phase;
  run_transforms(fused, data, mix(seed, 5), 0.0, {.keep_samples = false}, phase, &tracer,
                 "transform.execute.fused");
  set_fused_layer(result, tracer);
  probe_simd_and_stream(tracer, result, fused, data, seed);
}

}  // namespace perfbench
