// bench_serve — concurrent serving throughput driver (writes BENCH_serve.json).
//
// Hammer one shared wht::Engine from T client threads and count requests
// (execute / execute_many calls) served per second — the production shape the concurrent-serving redesign
// targets: immutable shared plans, re-entrant backends and serve-time
// backend arbitration.  Three sections:
//
//   decisions  the arbiter's backend choice (and every candidate's priced
//              cost) per request shape — single vectors across the n range
//              and batches of --batch vectors around --batch-n; a batch
//              costs --batch x the single anchor of its size
//   single     homogeneous single-vector serving at --gate-n: requests/sec
//              vs client threads (the CI scaling gate's shape)
//   mixed      singles across n in [--nmin, --nmax] plus --batch x
//              n = --batch-n batches, one request per call either way
//
// Noise convention (README): every cell is the best of --reps runs (we
// measure capacity, so the max is the statistic — interference only ever
// subtracts).  --assert-scaling R exits nonzero unless single-shape
// throughput at --assert-threads clients is >= R x the 1-client value:
// meaningless on single-core hosts, so the CI job (multi-core runners)
// owns the gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "simd/cpu_features.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace whtlab;

using util::random_vector;

/// Runs `clients` threads against `work` for ~`seconds`; returns requests/s.
/// Each `work(tid)` call serves one request, whatever its vector count.
template <typename WorkFn>
double throughput(int clients, double seconds, const WorkFn& work) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    pool.emplace_back([&, t]() {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        work(t);
        ++local;
      }
      served.fetch_add(local);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : pool) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(served.load()) / elapsed;
}

template <typename WorkFn>
double best_throughput(int clients, double seconds, int reps,
                       const WorkFn& work) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    best = std::max(best, throughput(clients, seconds, work));
  }
  return best;
}

struct ShapeDecision {
  int n = 0;
  std::size_t count = 0;
  wht::Engine::Decision decision;
};

/// --telemetry-overhead cell: the same single-vector workload through two
/// fresh engines, telemetry on vs off.
struct TelemetryOverhead {
  bool measured = false;
  int n = 0;
  double on_rps = 0.0;   ///< best round, telemetry on
  double off_rps = 0.0;  ///< best round, telemetry off
  /// Per-round paired overheads, percent (on and off windows back-to-back).
  std::vector<double> round_pcts;
  /// Median of the paired per-round ratios: each round's on/off windows run
  /// back-to-back and share the host's noise, so their ratio cancels drift
  /// that a best-of-on vs best-of-off comparison re-introduces.  Positive =
  /// recording costs throughput; sub-noise values go negative.
  double overhead_pct() const {
    if (round_pcts.empty()) {
      return off_rps > 0.0 ? (off_rps - on_rps) / off_rps * 100.0 : 0.0;
    }
    std::vector<double> sorted = round_pcts;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1
               ? sorted[mid]
               : 0.5 * (sorted[mid - 1] + sorted[mid]);
  }
};

void print_json(std::FILE* out, const std::vector<ShapeDecision>& decisions,
                const std::vector<int>& threads, int gate_n,
                const std::vector<double>& single_rps,
                const std::vector<double>& mixed_rps,
                const TelemetryOverhead& overhead,
                const wht::Engine::Stats& stats) {
  std::fprintf(out, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"simd_level\": \"%s\",\n",
               simd::to_string(simd::active_level()));
  std::fprintf(out, "  \"decisions\": [\n");
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const auto& shape = decisions[i];
    std::fprintf(out,
                 "    {\"n\": %d, \"count\": %zu, \"backend\": \"%s\", "
                 "\"candidates\": [",
                 shape.n, shape.count, shape.decision.backend.c_str());
    for (std::size_t c = 0; c < shape.decision.candidates.size(); ++c) {
      const auto& candidate = shape.decision.candidates[c];
      std::fprintf(out, "%s{\"backend\": \"%s\", \"cost\": %.6g}",
                   c ? ", " : "", candidate.backend.c_str(), candidate.cost);
    }
    std::fprintf(out, "]}%s\n", i + 1 < decisions.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  const auto print_series = [out](const char* name,
                                  const std::vector<double>& values) {
    std::fprintf(out, "\"%s\": [", name);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.1f", i ? ", " : "", values[i]);
    }
    std::fprintf(out, "]");
  };
  std::fprintf(out, "  \"threads\": [");
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::fprintf(out, "%s%d", i ? ", " : "", threads[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"single\": {\"n\": %d, ", gate_n);
  print_series("rps", single_rps);
  std::fprintf(out, "},\n  \"mixed\": {");
  print_series("rps", mixed_rps);
  if (overhead.measured) {
    std::fprintf(out,
                 "},\n  \"telemetry_overhead\": {\"n\": %d, \"on_rps\": %.1f, "
                 "\"off_rps\": %.1f, \"overhead_pct\": %.2f",
                 overhead.n, overhead.on_rps, overhead.off_rps,
                 overhead.overhead_pct());
  }
  std::fprintf(out,
               "},\n  \"engine_stats\": {\"vectors\": %llu, \"singles\": %llu, "
               "\"batches\": %llu}\n}\n",
               static_cast<unsigned long long>(stats.vectors),
               static_cast<unsigned long long>(stats.singles),
               static_cast<unsigned long long>(stats.batches));
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("threads", "client thread counts, comma-separated", "1,2,4,8");
  cli.add_flag("nmin", "smallest mixed-workload transform (log2)", "10");
  cli.add_flag("nmax", "largest mixed-workload transform (log2)", "22");
  cli.add_flag("gate-n", "single-shape section size (log2)", "10");
  cli.add_flag("batch-n", "batched mixed request size (log2)", "8");
  cli.add_flag("batch", "vectors per batched mixed request", "16");
  cli.add_flag("seconds", "measurement seconds per cell", "0.25");
  cli.add_flag("reps", "repetitions per cell (best-of)", "3");
  cli.add_flag("strategy", "planning strategy (estimate/anneal/...)",
               "estimate");
  cli.add_flag("wisdom", "wisdom file for first-touch plans", "");
  cli.add_flag("out", "output JSON path", "BENCH_serve.json");
  cli.add_flag("assert-scaling", "min rps ratio at --assert-threads vs 1", "0");
  cli.add_flag("assert-threads", "client count the scaling gate checks", "4");
  cli.add_bool("telemetry-overhead",
               "measure single-shape rps with telemetry on vs off");
  cli.add_flag("overhead-n",
               "transform size for the telemetry-overhead cell", "12");
  cli.add_flag("assert-overhead-pct",
               "fail when telemetry overhead exceeds this percent (0 = off)",
               "0");
  if (!cli.parse(argc, argv)) return 2;

  const std::vector<int> threads = cli.get_int_list("threads");
  const int nmin = static_cast<int>(cli.get_int("nmin", 10));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int gate_n = static_cast<int>(cli.get_int("gate-n", 10));
  const int batch_n = static_cast<int>(cli.get_int("batch-n", 8));
  const std::size_t batch = static_cast<std::size_t>(cli.get_int("batch", 16));
  const double seconds = cli.get_double("seconds", 0.25);
  const int reps = static_cast<int>(cli.get_int("reps", 3));

  wht::EngineOptions options;
  options.strategy = wht::strategy_from_string(cli.get("strategy"));
  options.wisdom_file = cli.get("wisdom");
  wht::Engine engine(options);

  // --- decisions: price the request shapes (also pays planning + anchors
  // up front so the timed sections serve from warm caches) -----------------
  std::vector<ShapeDecision> decisions;
  for (int n = nmin; n <= nmax; n += 4) {
    decisions.push_back({n, 1, engine.arbitrate(n, 1)});
  }
  for (const int n : {batch_n - 2, batch_n, batch_n + 2}) {
    if (n < 2) continue;
    decisions.push_back({n, batch, engine.arbitrate(n, batch)});
  }
  decisions.push_back({gate_n, 1, engine.arbitrate(gate_n, 1)});
  std::printf("%6s %6s %12s   candidates\n", "n", "count", "backend");
  for (const auto& shape : decisions) {
    std::printf("%6d %6zu %12s  ", shape.n, shape.count,
                shape.decision.backend.c_str());
    for (const auto& candidate : shape.decision.candidates) {
      std::printf(" %s=%.3g", candidate.backend.c_str(), candidate.cost);
    }
    std::printf("\n");
  }

  // --- single: the scaling-gate shape -------------------------------------
  const std::uint64_t gate_size = std::uint64_t{1} << gate_n;
  std::vector<double> single_rps;
  for (const int t : threads) {
    std::vector<std::vector<double>> buffers;
    for (int i = 0; i < t; ++i) {
      buffers.push_back(random_vector(gate_size, 10 + i));
    }
    single_rps.push_back(best_throughput(
        t, seconds, reps, [&engine, &buffers, gate_n](int tid) {
          engine.execute(gate_n, buffers[static_cast<std::size_t>(tid)].data());
        }));
    std::printf("single  n=%-3d clients=%-2d  %10.0f req/s\n", gate_n, t,
                single_rps.back());
  }

  // --- mixed: singles + batches across the n range ------------------------
  std::vector<int> mixed_sizes;
  for (int n = nmin; n <= nmax; n += 4) mixed_sizes.push_back(n);
  std::vector<double> mixed_rps;
  for (const int t : threads) {
    struct ClientState {
      std::vector<std::vector<double>> singles;
      std::vector<double> batch;
      std::size_t next = 0;
    };
    std::vector<ClientState> states(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      auto& state = states[static_cast<std::size_t>(i)];
      for (const int n : mixed_sizes) {
        state.singles.push_back(random_vector(std::uint64_t{1} << n, 20 + i));
      }
      state.batch =
          random_vector((std::uint64_t{1} << batch_n) * batch, 30 + i);
    }
    mixed_rps.push_back(best_throughput(
        t, seconds, reps,
        [&engine, &states, &mixed_sizes, batch_n, batch](int tid) {
          auto& state = states[static_cast<std::size_t>(tid)];
          const std::size_t shape = state.next++ % (mixed_sizes.size() + 1);
          if (shape < mixed_sizes.size()) {
            engine.execute(mixed_sizes[shape], state.singles[shape].data());
          } else {
            engine.execute_many(batch_n, state.batch.data(), batch);
          }
        }));
    std::printf("mixed   n=[%d..%d] clients=%-2d  %10.0f req/s\n", nmin, nmax,
                t, mixed_rps.back());
  }

  // --- telemetry overhead: recording cost on the hot path -----------------
  // Two fresh engines serve the identical single-vector workload from one
  // client; the delta is the per-request price of the two timestamps plus
  // the relaxed-atomic recording.  The backend is pinned to the main
  // engine's pick so both variants run the exact same kernel — with
  // measure_costs left on, independent anchor re-measurement can flip the
  // arbiter between near-tied backends and swamp the nanosecond-scale
  // effect under test.  One client keeps the comparison clean — under
  // contention the recording cost hides in coherence noise, which would
  // only flatter the result.
  TelemetryOverhead overhead;
  if (cli.has("telemetry-overhead")) {
    const int overhead_n = static_cast<int>(cli.get_int("overhead-n", 12));
    const std::uint64_t overhead_size = std::uint64_t{1} << overhead_n;
    const std::string pinned = engine.arbitrate(overhead_n, 1).backend;
    const auto make_probe = [&](bool telemetry) {
      wht::EngineOptions variant = options;
      variant.telemetry = telemetry;
      variant.backends = {pinned};
      variant.measure_costs = false;  // one candidate; anchors can't reroute
      return std::make_unique<wht::Engine>(variant);
    };
    const auto probe_on = make_probe(true);
    const auto probe_off = make_probe(false);
    std::vector<double> buffer = random_vector(overhead_size, 7);
    // Short windows, many paired rounds: on this class of (virtualized)
    // host the noise is bursty steal time, so a 0.1 s on/off pair usually
    // lands inside one noise regime and the median over many pairs is far
    // tighter than a few long windows.
    const double window = std::min(seconds, 0.1);
    const int rounds = std::max(reps * 8, 24);
    const auto time_probe = [&](wht::Engine& probe) {
      return throughput(1, window, [&probe, &buffer, overhead_n](int) {
        probe.execute(overhead_n, buffer.data());
      });
    };
    // Pay planning, then warm caches and clocks before timing.
    for (int i = 0; i < 512; ++i) {
      probe_on->execute(overhead_n, buffer.data());
      probe_off->execute(overhead_n, buffer.data());
    }
    // The effect under test is ~100 ns/request, so this cell takes more
    // rounds than the throughput cells to let the median converge.
    overhead.measured = true;
    overhead.n = overhead_n;
    for (int r = 0; r < rounds; ++r) {
      const double on = time_probe(*probe_on);
      const double off = time_probe(*probe_off);
      overhead.on_rps = std::max(overhead.on_rps, on);
      overhead.off_rps = std::max(overhead.off_rps, off);
      if (off > 0.0) overhead.round_pcts.push_back((off - on) / off * 100.0);
    }
    std::printf(
        "telemetry n=%-3d backend=%-10s  on %9.0f req/s   off %9.0f req/s   "
        "overhead %.2f%%\n",
        overhead_n, pinned.c_str(), overhead.on_rps, overhead.off_rps,
        overhead.overhead_pct());
  }

  const auto stats = engine.stats();
  const std::string out_path = cli.get("out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  print_json(out, decisions, threads, gate_n, single_rps, mixed_rps, overhead,
             stats);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  const double gate = cli.get_double("assert-scaling", 0.0);
  if (gate > 0.0) {
    const int gate_clients = static_cast<int>(cli.get_int("assert-threads", 4));
    double base = 0.0, scaled = 0.0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] == 1) base = single_rps[i];
      if (threads[i] == gate_clients) scaled = single_rps[i];
    }
    if (base <= 0.0 || scaled <= 0.0) {
      std::fprintf(stderr,
                   "bench_serve: --assert-scaling needs 1 and %d in --threads\n",
                   gate_clients);
      return 1;
    }
    const double ratio = scaled / base;
    std::printf("scaling gate: %d clients = %.2fx of 1 client (need >= %.2f)\n",
                gate_clients, ratio, gate);
    if (ratio < gate) {
      std::fprintf(stderr,
                   "bench_serve: FAIL concurrent throughput %.2fx < %.2fx\n",
                   ratio, gate);
      return 1;
    }
  }

  const double overhead_gate = cli.get_double("assert-overhead-pct", 0.0);
  if (overhead_gate > 0.0) {
    if (!overhead.measured) {
      std::fprintf(stderr,
                   "bench_serve: --assert-overhead-pct needs "
                   "--telemetry-overhead\n");
      return 1;
    }
    if (overhead.overhead_pct() > overhead_gate) {
      std::fprintf(stderr,
                   "bench_serve: FAIL telemetry overhead %.2f%% > %.2f%%\n",
                   overhead.overhead_pct(), overhead_gate);
      return 1;
    }
  }
  return 0;
}
