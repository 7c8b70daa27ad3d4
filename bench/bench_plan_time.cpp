// bench_plan_time — planning wall-time per (strategy, n, backend), the
// before/after trajectory of the analytic cache model (BENCH_plan.json).
//
// "After" cells time wht::Planner end to end (search + model, the product
// path) with the analytic miss engine — the default.  With --oracle, each
// cell is also timed with WHTLAB_MODEL_ORACLE=1, which routes the combined
// model's miss term through the trace-replay walk the analytic recursion
// replaced: the older cost of model-driven planning, and the ratio between
// the two is what the analytic engine buys.  The interesting before/after
// rows are the CombinedModel-priced backends ("generated", "simd").
// "fused" searches nothing — its schedule is a function of n and the cache
// geometry (ExecutorBackend::follows_plan) — so its cells time the bare
// planner path, and every cell records the planner's evaluation count: a
// "fused" cell must read 0.
//
// Noise convention (README bench section): every reported cell is a median
// over --reps timed repetitions, recorded with its interquartile range; the
// file also records the host's core count and SIMD level.  Oracle cells
// drop to 3 repetitions, and to 1 at n >= 20 — a single oracle kEstimate at
// n = 22 walks ~10^9 simulated accesses over minutes, and a deterministic
// CPU-bound model walk does not need nine samples to witness a
// two-orders-of-magnitude gap (the per-cell "reps"/"oracle_reps" fields
// record what each number is a median of).
//
// Run:  ./bench_plan_time [--out FILE] [--nmin N] [--nmax N] [--step N]
//                         [--reps N] [--backends a,b,..] [--strategies a,b]
//                         [--oracle] [--oracle-backends a,b] [--oracle-nmax N]
//                         [--max-seconds S]
//       --max-seconds S exits nonzero when any analytic kEstimate median
//       exceeds S — the CI plan-time regression gate.  The JSON's
//       per-cell "evaluations" backs the CI check that "fused" plans
//       without evaluating a candidate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "simd/cpu_features.hpp"
#include "stats/descriptive.hpp"
#include "util/cli.hpp"

namespace {

using namespace whtlab;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

wht::Strategy parse_strategy(const std::string& name) {
  // The shared façade parser does the name mapping; this driver only times
  // the measurement-free strategies, so everything else stays rejected.
  try {
    const wht::Strategy strategy = wht::strategy_from_string(name);
    if (strategy == wht::Strategy::kEstimate ||
        strategy == wht::Strategy::kAnneal) {
      return strategy;
    }
  } catch (const std::invalid_argument&) {
  }
  std::fprintf(stderr, "bench_plan_time: unknown strategy '%s' "
               "(model-driven only: estimate, anneal)\n", name.c_str());
  std::exit(2);
}

/// One full Planner().strategy(s).backend(b).plan(n), wall-clock seconds;
/// `evaluations` receives the planner's candidate-evaluation count.
double time_plan_once(wht::Strategy strategy, const std::string& backend,
                      int n, std::uint64_t& evaluations) {
  wht::Planner planner;
  planner.strategy(strategy).backend(backend);
  const auto start = std::chrono::steady_clock::now();
  auto transform = planner.plan(n);
  const auto stop = std::chrono::steady_clock::now();
  evaluations = transform.planning().evaluations;
  return std::chrono::duration<double>(stop - start).count();
}

stats::Quartiles time_plan_quartiles(wht::Strategy strategy,
                                     const std::string& backend, int n,
                                     int reps, std::uint64_t& evaluations) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    samples.push_back(time_plan_once(strategy, backend, n, evaluations));
  }
  return stats::quartiles(samples);
}

struct Cell {
  std::string strategy;
  std::string backend;
  int n = 0;
  double seconds = 0.0;       ///< analytic engine (the default path)
  double iqr_seconds = 0.0;   ///< its interquartile range over the reps
  int reps = 0;
  std::uint64_t evaluations = 0;  ///< candidates the planner evaluated
  double oracle_seconds = -1.0;  ///< trace engine; < 0 = not measured
  int oracle_reps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("out", "output JSON path", "BENCH_plan.json");
  cli.add_flag("nmin", "smallest size log2", "14");
  cli.add_flag("nmax", "largest size log2", "22");
  cli.add_flag("step", "size stride", "2");
  cli.add_flag("reps", "timed repetitions per analytic cell (median)", "9");
  cli.add_flag("backends", "comma list of backends", "generated,simd,fused");
  cli.add_flag("strategies", "comma list of strategies", "estimate,anneal");
  cli.add_bool("oracle", "also time WHTLAB_MODEL_ORACLE=1 (the pre-PR walk)");
  cli.add_flag("oracle-backends", "backends for the oracle columns", "simd");
  cli.add_flag("oracle-nmax", "largest oracle size log2", "22");
  cli.add_flag("max-seconds",
               "fail (exit 1) when an analytic estimate median exceeds this",
               "0");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const int nmin = static_cast<int>(cli.get_int("nmin", 14));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int step = static_cast<int>(cli.get_int("step", 2));
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  if (reps < 1 || step < 1) {
    std::fprintf(stderr, "bench_plan_time: --reps and --step must be >= 1\n");
    return 2;
  }
  const bool oracle = cli.has("oracle");
  const int oracle_nmax = static_cast<int>(cli.get_int("oracle-nmax", 22));
  const double max_seconds = cli.get_double("max-seconds", 0.0);
  const auto backends = split_list(cli.get("backends"));
  const auto strategies = split_list(cli.get("strategies"));
  const auto oracle_backends = split_list(cli.get("oracle-backends"));

  std::printf("simd level: %s; analytic reps %d (median per cell)%s\n",
              simd::to_string(simd::active_level()), reps,
              oracle ? "; oracle columns on" : "");
  std::printf("%10s %10s %4s %14s %6s %14s %6s %10s\n", "strategy", "backend",
              "n", "plan sec", "reps", "oracle sec", "reps", "speedup");

  std::vector<Cell> cells;
  bool gate_failed = false;
  for (const auto& strategy_name : strategies) {
    const wht::Strategy strategy = parse_strategy(strategy_name);
    for (const auto& backend : backends) {
      for (int n = nmin; n <= nmax; n += step) {
        Cell cell;
        cell.strategy = strategy_name;
        cell.backend = backend;
        cell.n = n;
        cell.reps = reps;
        const stats::Quartiles timed =
            time_plan_quartiles(strategy, backend, n, reps, cell.evaluations);
        cell.seconds = timed.q2;
        cell.iqr_seconds = timed.iqr();

        const bool want_oracle =
            oracle && n <= oracle_nmax &&
            std::find(oracle_backends.begin(), oracle_backends.end(),
                      backend) != oracle_backends.end();
        if (want_oracle) {
          cell.oracle_reps = n >= 20 ? 1 : std::min(3, reps);
          ::setenv("WHTLAB_MODEL_ORACLE", "1", 1);
          std::uint64_t oracle_evaluations = 0;
          cell.oracle_seconds =
              time_plan_quartiles(strategy, backend, n, cell.oracle_reps,
                                  oracle_evaluations)
                  .q2;
          ::unsetenv("WHTLAB_MODEL_ORACLE");
        }

        if (max_seconds > 0 && strategy == wht::Strategy::kEstimate &&
            cell.seconds > max_seconds) {
          std::fprintf(stderr,
                       "plan-time gate FAILED: %s/%s n=%d took %.3f s "
                       "(budget %.3f s)\n",
                       strategy_name.c_str(), backend.c_str(), n, cell.seconds,
                       max_seconds);
          gate_failed = true;
        }

        if (cell.oracle_seconds >= 0) {
          std::printf("%10s %10s %4d %14.4f %6d %14.3f %6d %9.1fx\n",
                      strategy_name.c_str(), backend.c_str(), n, cell.seconds,
                      cell.reps, cell.oracle_seconds, cell.oracle_reps,
                      cell.oracle_seconds / cell.seconds);
        } else {
          std::printf("%10s %10s %4d %14.4f %6d %14s %6s %10s\n",
                      strategy_name.c_str(), backend.c_str(), n, cell.seconds,
                      cell.reps, "-", "-", "-");
        }
        std::fflush(stdout);
        cells.push_back(cell);
      }
    }
  }

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"plan_time\",\n");
  std::fprintf(json, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"level\": \"%s\",\n",
               simd::to_string(simd::active_level()));
  std::fprintf(json,
               "  \"aggregation\": \"median wall seconds per cell and the "
               "interquartile range over its reps; evaluations = candidates "
               "the planner evaluated (identical every rep); oracle = "
               "WHTLAB_MODEL_ORACLE=1 trace walk (the replaced engine)\",\n");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(json,
                 "    {\"strategy\": \"%s\", \"backend\": \"%s\", \"n\": %d, "
                 "\"plan_seconds\": %.6f, \"plan_iqr_seconds\": %.6f, "
                 "\"reps\": %d, \"evaluations\": %llu",
                 cell.strategy.c_str(), cell.backend.c_str(), cell.n,
                 cell.seconds, cell.iqr_seconds, cell.reps,
                 static_cast<unsigned long long>(cell.evaluations));
    if (cell.oracle_seconds >= 0) {
      std::fprintf(json,
                   ", \"oracle_seconds\": %.6f, \"oracle_reps\": %d, "
                   "\"speedup\": %.1f",
                   cell.oracle_seconds, cell.oracle_reps,
                   cell.oracle_seconds / cell.seconds);
    } else {
      std::fprintf(json, ", \"oracle_seconds\": null");
    }
    std::fprintf(json, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());
  return gate_failed ? 1 : 0;
}
