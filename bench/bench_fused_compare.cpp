// bench_fused_compare — tree-walk SIMD vs cache-blocked fused engine
// (BENCH_fused.json), the memory-bound big-n trajectory.
//
// For each size n in [nmin, nmax], plans with the measurement-free
// kEstimate strategy *per backend* ("simd" searches with the SIMD
// instruction model; "fused" searches nothing, because its schedule is a
// function of n and the cache geometry: it gets iterative_radix) and times
// single transforms through each backend with
// the perf protocol (warmup, repetitions, median — the noise convention for
// 1-vCPU hosts; see README's bench section).  A scalar "generated" column
// anchors the absolute speedups, and every fused run is checked bit-exact
// against the scalar interpreter before timing.  Emits an aligned table and
// a JSON trajectory including the geomean fused-vs-simd speedup over
// n >= 18 (the beyond-L2 regime the fused engine exists for).  Every cell
// is the median over reps with its interquartile range.
//
// The JSON's "passes" array is the per-pass attribution: each pass shape
// the default blocking emits for n in [nmin, nmax] that fits one L2 block,
// timed alone (a one-pass Schedule through the fused executor) on a
// 2^l2_block_log2-double block the protocol's buffer restore leaves
// L2-resident, in ns per element of the block.  Every strided shape also
// carries a radix-2 pass at the same stage: both make one sweep of the
// block, so "vs_radix2" is what the extra stages cost.
//
// Run:  ./bench_fused_compare [--out FILE] [--nmin N] [--nmax N] [--reps N]
//                             [--level scalar|avx2|avx512] [--no-baseline]
//                             [--wisdom FILE]
//       (util::Cli parsing: --name value and --name=value both work;
//        --benchmark_repetitions is an alias for --reps;
//        --no-baseline skips the slow scalar column for quick ablations —
//        its JSON fields become null;
//        --wisdom caches the kEstimate winners so repeat runs skip the
//        simd planning pass — see bench_plan_time for the planning-cost
//        trajectory itself.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/wht.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "perf/cycle_timer.hpp"
#include "perf/measure.hpp"
#include "simd/cpu_features.hpp"
#include "simd/fused_executor.hpp"
#include "stats/descriptive.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace whtlab;

namespace {

/// Every pass of `round` and its inner rounds, as (stage, radix_log2).
void collect_passes(const core::ScheduleRound& round,
                    std::vector<std::pair<int, int>>& shapes) {
  for (const core::ScheduleRound& inner : round.inner) {
    collect_passes(inner, shapes);
  }
  for (const core::SchedulePass& pass : round.passes) {
    shapes.emplace_back(pass.stage, pass.radix_log2);
  }
}

struct PassRow {
  int stage, radix_log2;
  double ns, iqr_ns;  ///< median and IQR ns per element of the block
  double radix2_ns;   ///< radix-2 pass at the same stage; < 0 for unit passes
  double vs_radix2;   ///< median of the per-rep ratios ns / radix2_ns
};

/// Times one pass alone on a 2^block_log2 block, `reps` samples of 8
/// back-to-back passes each.  A strided pass is timed rep by rep in
/// alternation with a radix-2 pass at the same stage, so a change in the
/// host's speed during the run hits both alike; the ratio is the median of
/// the per-rep ratios.
PassRow time_pass(int block_log2, int stage, int radix_log2,
                  simd::SimdLevel level, int reps) {
  const std::uint64_t size = std::uint64_t{1} << block_log2;
  const double ns_per_cycle_elem =
      1e9 / perf::cycles_per_second() / static_cast<double>(size);
  const auto sample = [&](int k) {
    const core::Schedule schedule{
        block_log2, {core::ScheduleRound{block_log2, {}, {{stage, k}}}}};
    perf::MeasureOptions options;
    options.warmup = 1;
    options.repetitions = 1;
    options.inner_loop = 8;
    return perf::measure_run(
               [&](double* x) { simd::execute_fused(schedule, x, 1, level); },
               size, options)
               .cycles() *
           ns_per_cycle_elem;
  };
  const bool paired = stage > 0 && radix_log2 > 1;
  std::vector<double> ns, radix2_ns, ratios;
  for (int r = 0; r < reps; ++r) {
    ns.push_back(sample(radix_log2));
    if (paired) {
      radix2_ns.push_back(sample(1));
      ratios.push_back(ns.back() / radix2_ns.back());
    }
  }
  const stats::Quartiles q = stats::quartiles(ns);
  PassRow row{stage, radix_log2, q.q2, q.iqr(), -1.0, -1.0};
  if (stage > 0) {
    row.radix2_ns = paired ? stats::quartiles(radix2_ns).q2 : q.q2;
    row.vs_radix2 = paired ? stats::quartiles(ratios).q2 : 1.0;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_fused.json");
  cli.add_flag("nmin", "smallest size log2", "14");
  cli.add_flag("nmax", "largest size log2", "22");
  cli.add_flag("reps", "timed repetitions per cell (median reported)", "9");
  cli.add_flag("benchmark_repetitions", "alias for --reps");
  cli.add_flag("level", "cap the SIMD level: scalar|avx2|avx512");
  cli.add_bool("no-baseline", "skip the slow scalar generated column");
  cli.add_flag("wisdom", "plan-cache file (skips re-planning on repeat runs)");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const std::string wisdom = cli.get("wisdom");
  const int nmin = static_cast<int>(cli.get_int("nmin", 14));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int reps = static_cast<int>(cli.has("benchmark_repetitions")
                                        ? cli.get_int("benchmark_repetitions", 9)
                                        : cli.get_int("reps", 9));
  const bool baseline = !cli.has("no-baseline");
  if (cli.has("level")) simd::force_level(simd::parse_level(cli.get("level")));

  const simd::SimdLevel level = simd::active_level();
  const core::BlockingConfig blocking = simd::detect_blocking();
  std::printf(
      "simd level: %s (width %d), blocks 2^%d / 2^%d doubles, reps %d "
      "(median per cell)\n",
      simd::to_string(level), simd::vector_width(level),
      blocking.l1_block_log2, blocking.l2_block_log2, reps);
  std::printf("%4s %6s %16s %16s %16s %10s %10s\n", "n", "sweeps",
              "generated cyc", "simd cyc", "fused cyc", "vs simd", "vs scalar");

  perf::MeasureOptions options;
  options.repetitions = reps;

  struct Row {
    int n;
    int sweeps;
    perf::MeasureResult generated, simd, fused;
  };
  std::vector<Row> rows;

  auto scalar_backend = wht::BackendRegistry::global().create("generated");
  auto simd_backend = wht::BackendRegistry::global().create("simd");
  auto fused_backend = wht::BackendRegistry::global().create("fused");

  std::vector<std::pair<int, int>> shapes;
  for (int n = nmin; n <= nmax; ++n) {
    // Each backend gets its own kEstimate plan: the simd winner is priced
    // by the model of the engine that will run it; fused's is fixed.
    wht::Planner simd_planner;
    simd_planner.backend("simd");
    wht::Planner fused_planner;
    fused_planner.backend("fused");
    if (!wisdom.empty()) {
      simd_planner.wisdom_file(wisdom);
      fused_planner.wisdom_file(wisdom);
    }
    const core::Plan simd_plan = simd_planner.plan(n).plan();
    const core::Plan fused_plan = fused_planner.plan(n).plan();

    // Bit-exactness gate before timing anything.
    {
      const std::uint64_t size = std::uint64_t{1} << n;
      util::AlignedBuffer x(size);
      util::AlignedBuffer reference(size);
      util::Rng rng(static_cast<std::uint64_t>(n) * 71 + 13);
      for (std::uint64_t i = 0; i < size; ++i) {
        x[i] = reference[i] = rng.uniform(-1, 1);
      }
      fused_backend->run(fused_plan, x.data(), 1);
      core::execute(fused_plan, reference.data());
      for (std::uint64_t i = 0; i < size; ++i) {
        if (x[i] != reference[i]) {
          std::fprintf(stderr, "parity FAILED at n=%d i=%llu\n", n,
                       static_cast<unsigned long long>(i));
          return 1;
        }
      }
    }

    Row row{};
    row.n = n;
    const core::Schedule schedule = core::lower_size(n, blocking);
    row.sweeps = core::sweep_count(schedule);
    for (const core::ScheduleRound& round : schedule.rounds) {
      collect_passes(round, shapes);
    }
    if (baseline) {
      row.generated =
          wht::measure_with_backend(*scalar_backend, simd_plan, options);
    }
    row.simd = wht::measure_with_backend(*simd_backend, simd_plan, options);
    row.fused = wht::measure_with_backend(*fused_backend, fused_plan, options);
    rows.push_back(row);

    const double simd_cycles = row.simd.cycles();
    const double fused_cycles = row.fused.cycles();
    if (baseline) {
      std::printf("%4d %6d %16.0f %16.0f %16.0f %9.2fx %9.2fx\n", n,
                  row.sweeps, row.generated.cycles(), simd_cycles,
                  fused_cycles, simd_cycles / fused_cycles,
                  row.generated.cycles() / fused_cycles);
    } else {
      std::printf("%4d %6d %16s %16.0f %16.0f %9.2fx %10s\n", n, row.sweeps,
                  "-", simd_cycles, fused_cycles, simd_cycles / fused_cycles,
                  "-");
    }
  }

  // Per-pass table: the distinct in-L2 pass shapes, each timed alone.
  const int block_log2 = blocking.l2_block_log2;
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  const int pass_reps = std::max(reps, 9);  // a pass costs microseconds
  std::vector<PassRow> passes;
  std::printf("per-pass ns/elem on one 2^%d block:\n%6s %6s %10s %10s %10s\n",
              block_log2, "stage", "radix", "ns/elem", "radix-2", "vs r2");
  for (const auto& [stage, radix_log2] : shapes) {
    if (stage + radix_log2 > block_log2) continue;  // streaming: beyond L2
    const PassRow p = time_pass(block_log2, stage, radix_log2, level, pass_reps);
    if (stage > 0) {
      std::printf("%6d %6d %10.3f %10.3f %9.2fx\n", stage, 1 << radix_log2,
                  p.ns, p.radix2_ns, p.vs_radix2);
    } else {
      std::printf("%6d %6d %10.3f %10s %10s\n", stage, 1 << radix_log2, p.ns,
                  "-", "-");
    }
    passes.push_back(p);
  }

  // Geomean of the fused-vs-simd speedup over the beyond-L2 sizes.
  double log_sum = 0.0;
  int log_count = 0;
  for (const Row& r : rows) {
    if (r.n >= 18) {
      log_sum += std::log(r.simd.cycles() / r.fused.cycles());
      ++log_count;
    }
  }
  const double geomean = log_count > 0 ? std::exp(log_sum / log_count) : 0.0;
  if (log_count > 0) {
    std::printf("geomean fused-vs-simd speedup, n in [18, %d]: %.3fx\n",
                rows.back().n, geomean);
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fused_compare\",\n  \"host_cores\": %u,\n"
               "  \"level\": \"%s\",\n"
               "  \"vector_width\": %d,\n  \"l1_block_log2\": %d,\n"
               "  \"l2_block_log2\": %d,\n  \"repetitions\": %d,\n"
               "  \"aggregation\": \"median cycles per cell and the "
               "interquartile range over its reps, geomean across sizes\",\n"
               "  \"parity\": \"bit-identical vs generated\",\n"
               "  \"geomean_fused_vs_simd_n18plus\": %.3f,\n"
               "  \"results\": [\n",
               std::thread::hardware_concurrency(), simd::to_string(level),
               simd::vector_width(level), blocking.l1_block_log2,
               blocking.l2_block_log2, reps, geomean);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::string scalar_fields =
        "null, \"generated_iqr_cycles\": null, \"fused_vs_scalar\": null";
    if (baseline) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer),
                    "%.1f, \"generated_iqr_cycles\": %.1f, "
                    "\"fused_vs_scalar\": %.3f",
                    r.generated.cycles(), r.generated.iqr_cycles,
                    r.generated.cycles() / r.fused.cycles());
      scalar_fields = buffer;
    }
    std::fprintf(f,
                 "    {\"n\": %d, \"sweeps\": %d, "
                 "\"generated_cycles\": %s, \"simd_cycles\": %.1f, "
                 "\"simd_iqr_cycles\": %.1f, \"fused_cycles\": %.1f, "
                 "\"fused_iqr_cycles\": %.1f, \"fused_vs_simd\": %.3f}%s\n",
                 r.n, r.sweeps, scalar_fields.c_str(), r.simd.cycles(),
                 r.simd.iqr_cycles, r.fused.cycles(), r.fused.iqr_cycles,
                 r.simd.cycles() / r.fused.cycles(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"passes_block_log2\": %d,\n"
               "  \"passes_repetitions\": %d,\n  \"passes\": [\n",
               block_log2, pass_reps);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRow& p = passes[i];
    std::string radix2_fields = "null, \"vs_radix2\": null";
    if (p.radix2_ns >= 0) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.4f, \"vs_radix2\": %.3f",
                    p.radix2_ns, p.vs_radix2);
      radix2_fields = buffer;
    }
    std::fprintf(f,
                 "    {\"stage\": %d, \"radix_log2\": %d, "
                 "\"ns_per_elem\": %.4f, \"iqr_ns_per_elem\": %.4f, "
                 "\"radix2_ns_per_elem\": %s}%s\n",
                 p.stage, p.radix_log2, p.ns, p.iqr_ns, radix2_fields.c_str(),
                 i + 1 < passes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
