// bench_simd_compare — scalar-vs-SIMD perf trajectory (BENCH_simd.json).
//
// For each size n in [nmin, nmax], plans once with the measurement-free
// kEstimate strategy and times the SAME plan on the "generated" (scalar)
// and "simd" backends, single-shot and batched (execute_many over `batch`
// packed vectors — the high-throughput serving shape).  Emits an aligned
// table on stdout and a JSON trajectory:
//
//   { "bench": "simd_compare", "host_cores": 4, "level": "avx512",
//     "vector_width": 8, ...,
//     "results": [ { "n": 10, "single_scalar_cycles": ...,
//                    "single_scalar_iqr_cycles": ...,
//                    "single_simd_cycles": ..., "single_simd_iqr_cycles": ...,
//                    "single_speedup": ...,
//                    "batch_scalar_cycles_per_vec": ..., (and its _iqr_)
//                    "batch_simd_cycles_per_vec": ..., (and its _iqr_)
//                    "batch_speedup": ... }, ... ] }
//
// Run:  ./bench_simd_compare [--out FILE] [--nmin N] [--nmax N]
//                            [--batch N] [--reps N] [--level scalar|avx2|avx512]
//       (util::Cli parsing: --name value and --name=value both work;
//        --benchmark_repetitions is an alias for --reps, the same
//        repetitions-then-median convention as the google-benchmark micros;
//        every reported cycle count is the median over reps, next to the
//        interquartile range over the same reps.)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "perf/measure.hpp"
#include "simd/cpu_features.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace whtlab;

  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_simd.json");
  cli.add_flag("nmin", "smallest size log2", "10");
  cli.add_flag("nmax", "largest size log2", "20");
  cli.add_flag("batch", "vectors per execute_many batch", "32");
  cli.add_flag("reps", "timed repetitions per cell (median reported)", "7");
  cli.add_flag("benchmark_repetitions", "alias for --reps");
  cli.add_flag("level", "cap the SIMD level: scalar|avx2|avx512");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const int nmin = static_cast<int>(cli.get_int("nmin", 10));
  const int nmax = static_cast<int>(cli.get_int("nmax", 20));
  const std::size_t batch =
      static_cast<std::size_t>(cli.get_int("batch", 32));
  const int reps = static_cast<int>(cli.has("benchmark_repetitions")
                                        ? cli.get_int("benchmark_repetitions", 7)
                                        : cli.get_int("reps", 7));
  if (cli.has("level")) simd::force_level(simd::parse_level(cli.get("level")));

  const simd::SimdLevel level = simd::active_level();
  std::printf("simd level: %s (width %d), batch %zu, reps %d\n",
              simd::to_string(level), simd::vector_width(level), batch, reps);
  std::printf("%4s %16s %16s %8s %16s %16s %8s\n", "n", "scalar cyc",
              "simd cyc", "speedup", "scalar cyc/vec", "simd cyc/vec",
              "speedup");

  perf::MeasureOptions options;
  options.repetitions = reps;
  const double vectors = static_cast<double>(batch);

  struct Row {
    int n;
    perf::MeasureResult single_scalar, single_simd;
    perf::MeasureResult batch_scalar, batch_simd;  ///< per batch, not per vector
  };
  std::vector<Row> rows;

  auto scalar_backend = wht::BackendRegistry::global().create("generated");
  auto simd_backend = wht::BackendRegistry::global().create("simd");

  for (int n = nmin; n <= nmax; ++n) {
    const core::Plan plan = wht::Planner().plan(n).plan();
    const std::ptrdiff_t dist = static_cast<std::ptrdiff_t>(plan.size());

    Row row{};
    row.n = n;
    row.single_scalar =
        wht::measure_with_backend(*scalar_backend, plan, options);
    row.single_simd = wht::measure_with_backend(*simd_backend, plan, options);

    const std::uint64_t total = plan.size() * batch;
    row.batch_scalar = perf::measure_run(
        [&](double* x) { scalar_backend->run_many(plan, x, batch, dist); },
        total, options);
    row.batch_simd = perf::measure_run(
        [&](double* x) { simd_backend->run_many(plan, x, batch, dist); },
        total, options);
    rows.push_back(row);

    std::printf("%4d %16.0f %16.0f %7.2fx %16.0f %16.0f %7.2fx\n", n,
                row.single_scalar.cycles(), row.single_simd.cycles(),
                row.single_scalar.cycles() / row.single_simd.cycles(),
                row.batch_scalar.cycles() / vectors,
                row.batch_simd.cycles() / vectors,
                row.batch_scalar.cycles() / row.batch_simd.cycles());
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"simd_compare\",\n  \"host_cores\": %u,\n"
               "  \"level\": \"%s\",\n"
               "  \"vector_width\": %d,\n  \"batch\": %zu,\n"
               "  \"repetitions\": %d,\n"
               "  \"aggregation\": \"median cycles per cell and the "
               "interquartile range over its reps\",\n  \"results\": [\n",
               std::thread::hardware_concurrency(), simd::to_string(level),
               simd::vector_width(level), batch, reps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"single_scalar_cycles\": %.1f, "
                 "\"single_scalar_iqr_cycles\": %.1f, "
                 "\"single_simd_cycles\": %.1f, "
                 "\"single_simd_iqr_cycles\": %.1f, \"single_speedup\": %.3f, "
                 "\"batch_scalar_cycles_per_vec\": %.1f, "
                 "\"batch_scalar_iqr_cycles_per_vec\": %.1f, "
                 "\"batch_simd_cycles_per_vec\": %.1f, "
                 "\"batch_simd_iqr_cycles_per_vec\": %.1f, "
                 "\"batch_speedup\": %.3f}%s\n",
                 r.n, r.single_scalar.cycles(), r.single_scalar.iqr_cycles,
                 r.single_simd.cycles(), r.single_simd.iqr_cycles,
                 r.single_scalar.cycles() / r.single_simd.cycles(),
                 r.batch_scalar.cycles() / vectors,
                 r.batch_scalar.iqr_cycles / vectors,
                 r.batch_simd.cycles() / vectors,
                 r.batch_simd.iqr_cycles / vectors,
                 r.batch_scalar.cycles() / r.batch_simd.cycles(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
