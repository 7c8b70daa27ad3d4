// large_mt: one caller thread drives a wht::Engine with a thread budget of
// four -- the only workload where the thread-budget arbitration, the
// `parallel` backend and the util::parallel_chunks fan-out run.  A round is
// one n=24 single, four n=22 singles and 300 execute_many batches of
// 64 x n=12, in a seeded order; only the Engine calls are timed.  The
// candidates are the two backends that spend the thread budget (fused fans
// batches out, parallel splits one vector); leaving out the other two keeps
// the n=24 first touch, which every set-up repeats, at a few seconds.
// Also the parallel-layer probe (threads = 4 against threads = 1).
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

struct Shape {
  ShapeSpec spec;
  const char* span;   ///< span of the Engine call
  const char* label;  ///< parallel.<label>.speedup
};
/// Rounds per slice: enough requests (4 x 305) for a p99 with ten beyond;
/// a timed phase runs at least three slices' worth, however slow the host.
constexpr std::size_t kRoundsPerSlice = 4;
constexpr std::size_t kMinRounds = 3 * kRoundsPerSlice;
const Shape kShapes[] = {
    {{.n = 24, .count = 1, .per_round = 1, .inputs = 1, .in_place = true},
     "engine.execute.n24", "n24"},
    {{.n = 22, .count = 1, .per_round = 4, .inputs = 2}, "engine.execute.n22", "n22"},
    {{.n = 12, .count = 64, .per_round = 300, .inputs = 2},
     "engine.execute_many.n12x64", "batch64.n12"},
};

wht::EngineOptions engine_options(int threads) {
  wht::EngineOptions o;
  o.threads = threads;
  o.backends = {"fused", "parallel"};
  return o;
}

std::vector<ShapeData> make_data(std::uint64_t seed) {
  std::vector<ShapeSpec> specs;
  for (const Shape& s : kShapes) specs.push_back(s.spec);
  return make_shapes(specs, seed, 2000);
}

void serve(wht::Engine& engine, const ShapeSpec& spec, double* x) {
  if (spec.count > 1) {
    engine.execute_many(spec.n, x, spec.count);
  } else {
    engine.execute(spec.n, x);
  }
}

void first_touch(wht::Engine& engine, std::vector<ShapeData>& data) {
  for (ShapeData& d : data) {
    std::memcpy(d.work.data(), d.pool[0].data(), d.work.size() * sizeof(double));
    serve(engine, d.spec, d.work.data());
  }
}

/// Whole rounds, every request in a seeded order, until `seconds` have
/// passed and at least `min_rounds` ran.
void run_phase(wht::Engine& engine, std::vector<ShapeData>& data,
               std::uint64_t seed, double seconds, std::size_t min_rounds,
               Phase& phase, Tracer* tracer, bool keep_samples) {
  std::vector<std::uint32_t> ids;
  for (const Shape& s : kShapes) ids.push_back(tracer != nullptr ? tracer->intern(s.span) : 0);
  run_rounds(data,
             {.interleave = true,
              .rounds_per_slice = kRoundsPerSlice,
              .min_rounds = min_rounds,
              .keep_samples = keep_samples},
             [&](std::size_t s, double* x) { serve(engine, data[s].spec, x); }, seed,
             seconds, phase, tracer, ids);
}

/// Median ns per call of each shape, by span name.
std::map<std::string, double> medians(const Tracer& tracer) {
  std::map<std::string, double> out;
  for (const auto& [name, st] : tracer.stats()) out[name] = st.median_ns;
  return out;
}

/// parallel.<shape>.speedup = threads=1 median / threads=4 median.
void set_speedups(Result& result, const std::map<std::string, double>& t4,
                  const std::map<std::string, double>& t1) {
  for (const Shape& s : kShapes) {
    result.set(result.layer, std::string("parallel.") + s.label + ".speedup",
               t1.at(s.span) / t4.at(s.span), "ratio");
  }
}

/// A fresh Engine with `threads`, first-touched, then `rounds` traced
/// rounds; returns the per-shape medians.
std::map<std::string, double> measure_engine(int threads,
                                             std::vector<ShapeData>& data,
                                             std::uint64_t seed, std::size_t rounds) {
  wht::Engine engine(engine_options(threads));
  first_touch(engine, data);
  Tracer tracer;
  Phase phase;
  run_phase(engine, data, seed, 0.0, rounds, phase, &tracer, false);
  return medians(tracer);
}

}  // namespace

void run_large_mt(const Options& options, Result& result, Tracer* tracer) {
  auto data = make_data(options.seed);
  std::unique_ptr<wht::Engine> engine;
  std::vector<double> setups;
  for (int i = 0; i < (tracer != nullptr ? 1 : kSetups); ++i) {
    engine.reset();
    const std::uint64_t t0 = now_ns();
    engine = std::make_unique<wht::Engine>(engine_options(4));
    {
      Tracer::Scope span(tracer, tracer != nullptr ? tracer->intern("engine.first_touch") : 0);
      first_touch(*engine, data);
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Phase untraced, traced;
  run_phase(*engine, data, mix(options.seed, 1),
            tracer != nullptr ? options.seconds / 2 : options.seconds, kMinRounds, untraced,
            nullptr, true);
  result.set(result.info, "rss_mb", self_usage().hwm_mib, "MiB");
  if (tracer == nullptr) {
    result.set_phase_metrics(untraced, setups);
    result.set(result.e2e, "rss_mb", result.info["rss_mb"].value, "MiB");
  } else {
    run_phase(*engine, data, mix(options.seed, 2), options.seconds / 2, kMinRounds, traced,
              tracer, true);
    result.attempted += untraced.attempted + traced.attempted;
    result.failed += untraced.failed + traced.failed;
    set_trace_overhead(result, untraced, traced);
    set_proc_metrics(result, untraced);
    result.set(result.layer, "engine.first_touch_s",
               tracer->stats().at("engine.first_touch").total_ns * 1e-9, "s");
  }

  // Correctness: sampled smaller outputs, and the last n=24 output in place.
  std::vector<whtlab::core::Plan> plans;
  for (const Shape& s : kShapes) {
    plans.push_back(
        engine->transform(s.spec.n, engine->arbitrate(s.spec.n, s.spec.count).backend)->plan());
  }
  if (tracer != nullptr) {
    const auto t4 = medians(*tracer);
    engine.reset();
    set_speedups(result, t4, measure_engine(1, data, mix(options.seed, 3), 2));
  }
  engine.reset();
  check_shapes(result, data, plans);
}

void probe_parallel(Tracer&, Result& result, std::uint64_t seed) {
  auto data = make_data(seed);
  const auto t4 = measure_engine(4, data, mix(seed, 4), 2);
  const auto t1 = measure_engine(1, data, mix(seed, 5), 2);
  set_speedups(result, t4, t1);
}

}  // namespace perfbench
