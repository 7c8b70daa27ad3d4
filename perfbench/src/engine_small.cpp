// engine_small: two caller threads share one default wht::Engine in a
// closed loop over small vectors (<= 8 KiB), so routing, the Engine's
// locks, telemetry recording and the coalescing dispatcher dominate.
// One caller runs a fixed mix, seeded per thread:
//   25% execute n=6, 20% execute n=8, 35% execute n=10,
//   20% execute_many 16 x n=8;
// the other runs submit()+get() n=8, so the dispatcher's batches contend
// with the mix for the Engine.  A submit waits out the 200 us coalescing
// window, a timer and two wake-ups that a shared host delays by varying
// amounts; on one caller with the mix it set the pace of every request.
// Two callers and the dispatcher leave a core of the four free.
// The shares are a fixed choice, not measured traffic: they put the median
// inside the n=10 class.
// Also the Engine-layer probe.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Callers of the workload; the first `kSubmitters` only submit.
constexpr int kCallers = 2;
constexpr int kSubmitters = 1;
/// Callers of the scaling and batching probes.
constexpr int kProbeCallers = 4;

enum class Kind { kExec6, kExec8, kExec10, kMany8, kSubmit8 };
struct Shape {
  Kind kind;
  int n;
  std::size_t count;
  int weight;  ///< percent of a mix caller's requests
  const char* span;
};
/// The mix callers draw the shapes by weight; submitters take the last.
constexpr Shape kMix[] = {
    {Kind::kExec6, 6, 1, 25, "engine.execute.n6"},
    {Kind::kExec8, 8, 1, 20, "engine.execute.n8"},
    {Kind::kExec10, 10, 1, 35, "engine.execute.n10"},
    {Kind::kMany8, 8, 16, 20, "engine.execute_many.n8x16"},
    {Kind::kSubmit8, 8, 1, 0, "engine.submit.n8"},
};
constexpr std::size_t kSubmitShape = std::size(kMix) - 1;
constexpr std::size_t kInputs = 4;
constexpr std::size_t kSamplesPerThread = 48;
/// Idle time between set-ups.  A set-up takes milliseconds, and the shared
/// host's speed changes in regimes of seconds; spaced out, the set-ups of
/// a run span ten seconds, so their median is not one regime's.
constexpr auto kSetupSpacing = std::chrono::milliseconds(100);
constexpr double kSliceSeconds = 0.5;

struct Sample {
  std::size_t shape = 0;
  std::size_t input = 0;
  std::vector<double> output;
};

/// Per-shape seeded input pools (shared read-only by the callers).
struct Inputs {
  std::vector<std::vector<std::vector<double>>> pool;  ///< [shape][input]
  explicit Inputs(std::uint64_t seed) {
    for (std::size_t s = 0; s < std::size(kMix); ++s) {
      pool.emplace_back();
      for (std::size_t i = 0; i < kInputs; ++i) {
        pool.back().push_back(seeded_vector(kMix[s].count << kMix[s].n, seed,
                                            1000 + s * kInputs + i));
      }
    }
  }
};

void serve(wht::Engine& engine, const Shape& shape, double* x) {
  switch (shape.kind) {
    case Kind::kMany8:
      engine.execute_many(shape.n, x, shape.count);
      break;
    case Kind::kSubmit8:
      engine.submit(shape.n, x).get();
      break;
    default:
      engine.execute(shape.n, x);
  }
}

/// First touch of every shape in the mix (planning, anchoring, starting the
/// dispatcher), as set-up does it.
void first_touch(wht::Engine& engine, const Inputs& inputs) {
  for (std::size_t s = 0; s < std::size(kMix); ++s) {
    std::vector<double> x = inputs.pool[s][0];
    serve(engine, kMix[s], x.data());
  }
}

/// The closed loop on `callers` threads for `seconds`: the first
/// `submitters` run submit()+get(), the others the weighted mix.
void run_mix(wht::Engine& engine, const Inputs& inputs, int callers,
             int submitters, double seconds, std::uint64_t seed, Phase& phase, Tracer* tracer,
             std::vector<Sample>* samples) {
  std::vector<std::uint32_t> ids;
  for (const Shape& s : kMix) ids.push_back(tracer != nullptr ? tracer->intern(s.span) : 0);
  std::vector<Phase> parts(static_cast<std::size_t>(callers));
  std::vector<std::vector<Sample>> kept(static_cast<std::size_t>(callers));
  phase.usage_before = self_usage();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < callers; ++t) {
      threads.emplace_back([&, t] {
        Phase& part = parts[static_cast<std::size_t>(t)];
        auto& mine = kept[static_cast<std::size_t>(t)];
        whtlab::util::Rng rng(mix(seed, 100 + static_cast<std::uint64_t>(t)));
        std::vector<double> work(16 << 10);
        std::uint64_t request = static_cast<std::uint64_t>(t) << 40;
        while (now_ns() < deadline) {
          std::size_t s = kSubmitShape;
          if (t >= submitters) {
            std::uint64_t pick = rng.below(100);
            s = 0;
            while (pick >= static_cast<std::uint64_t>(kMix[s].weight)) {
              pick -= static_cast<std::uint64_t>(kMix[s].weight);
              ++s;
            }
          }
          const Shape& shape = kMix[s];
          const std::size_t input = rng.below(kInputs);
          const auto& src = inputs.pool[s][input];
          std::memcpy(work.data(), src.data(), src.size() * sizeof(double));
          ++part.attempted;
          const std::uint64_t t0 = now_ns();
          try {
            Tracer::Scope span(tracer, ids[s], request);
            serve(engine, shape, work.data());
          } catch (const std::exception&) {
            ++part.failed;
            ++request;
            continue;
          }
          const std::uint64_t done = now_ns();
          part.record(static_cast<double>(done - t0) * 1e-3, shape.count > 1,
                      static_cast<double>(src.size()),
                      static_cast<std::size_t>(static_cast<double>(done - start) * 1e-9 /
                                               kSliceSeconds));
          ++request;
          if (samples != nullptr && mine.size() < kSamplesPerThread &&
              rng.below(256) == 0) {
            mine.push_back({s, input, std::vector<double>(work.begin(),
                                                          work.begin() + static_cast<std::ptrdiff_t>(src.size()))});
          }
        }
      });
    }
  }
  phase.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  phase.usage_after = self_usage();
  for (const auto& part : parts) phase.merge(part);
  phase.set_wall_slices(kSliceSeconds);
  if (samples != nullptr) {
    for (auto& mine : kept) {
      for (auto& s : mine) samples->push_back(std::move(s));
    }
  }
}

void check_samples(Result& result, const Inputs& inputs,
                   const std::vector<Sample>& samples) {
  Gate gate(result);
  for (const Sample& s : samples) {
    gate.check(kMix[s.shape].n, inputs.pool[s.shape][s.input].data(),
               s.output.data(), kMix[s.shape].count);
  }
}

/// Engine::stats() vectors served through run_many per dispatch.
double vectors_per_batch(const wht::Engine::Stats& a, const wht::Engine::Stats& b) {
  const double batched = static_cast<double>((b.vectors - b.singles) - (a.vectors - a.singles));
  const double batches = static_cast<double>(b.batches - a.batches);
  return batches > 0 ? batched / batches : 0.0;
}

}  // namespace

void run_engine_small(const Options& options, Result& result, Tracer* tracer) {
  const Inputs inputs(options.seed);
  std::unique_ptr<wht::Engine> engine;
  std::vector<double> setups;
  for (int i = 0; i < (tracer != nullptr ? 1 : kCheapSetups); ++i) {
    engine.reset();
    if (i > 0) std::this_thread::sleep_for(kSetupSpacing);
    const std::uint64_t t0 = now_ns();
    engine = std::make_unique<wht::Engine>();
    {
      Tracer::Scope span(tracer, tracer != nullptr ? tracer->intern("engine.first_touch") : 0);
      first_touch(*engine, inputs);
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::vector<Sample> samples;
  Phase untraced, traced;
  run_mix(*engine, inputs, kCallers, kSubmitters,
          tracer != nullptr ? options.seconds / 2 : options.seconds, options.seed,
          untraced, nullptr, &samples);
  result.set(result.info, "rss_mb", self_usage().hwm_mib, "MiB");
  if (tracer == nullptr) {
    result.set_phase_metrics(untraced, setups);
    result.set(result.e2e, "rss_mb", result.info["rss_mb"].value, "MiB");
  } else {
    run_mix(*engine, inputs, kCallers, kSubmitters, options.seconds / 2, mix(options.seed, 7),
            traced, tracer, &samples);
    result.attempted += untraced.attempted + traced.attempted;
    result.failed += untraced.failed + traced.failed;
    set_trace_overhead(result, untraced, traced);
    set_proc_metrics(result, untraced);
    result.set(result.layer, "engine.first_touch_s",
               tracer->stats().at("engine.first_touch").total_ns * 1e-9, "s");
  }
  engine.reset();
  check_samples(result, inputs, samples);
}

void probe_engine(Tracer& tracer, Result& result, std::uint64_t seed,
                  bool time_first_touch) {
  const Inputs inputs(seed);
  {
    wht::Engine engine;
    if (time_first_touch) {
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(&tracer, tracer.intern("engine.first_touch"));
        first_touch(engine, inputs);
      }
      result.set(result.layer, "engine.first_touch_s",
                 static_cast<double>(now_ns() - t0) * 1e-9, "s");
    } else {
      first_touch(engine, inputs);  // warm-up only; the workload timed its own
    }

    // Arbitration alone, on warm shapes: blocks of calls over the mix.
    {
      const auto id = tracer.intern("engine.arbitrate");
      std::vector<double> per_call;
      for (int block = 0; block < 50; ++block) {
        const std::uint64_t t0 = now_ns();
        {
          Tracer::Scope span(&tracer, id, static_cast<std::uint64_t>(block));
          for (int i = 0; i < 200; ++i) {
            const Shape& s = kMix[static_cast<std::size_t>(i) % kSubmitShape];
            engine.arbitrate(s.n, s.count);
          }
        }
        per_call.push_back(static_cast<double>(now_ns() - t0) / 200.0);
      }
      result.set(result.layer, "engine.arbitrate_ns", median(per_call), "ns", 50 * 200);
    }

    // Engine call minus the direct Transform call it routes to, alternated.
    for (const auto& [label, s] : {std::pair<const char*, std::size_t>{"single", 1},
                                   {"batch", 3}}) {
      const Shape& shape = kMix[s];
      const auto direct =
          engine.transform(shape.n, engine.arbitrate(shape.n, shape.count).backend);
      const auto& input = inputs.pool[s][0];
      std::vector<double> work(input.size());
      LatencyRecorder via_engine, via_transform;
      const auto id_e = tracer.intern(std::string("engine.overhead.engine.") + label);
      const auto id_t = tracer.intern(std::string("engine.overhead.transform.") + label);
      for (int r = 0; r < 3000; ++r) {
        for (const bool use_engine : {r % 2 == 0, r % 2 != 0}) {
          std::memcpy(work.data(), input.data(), input.size() * sizeof(double));
          const std::uint64_t t0 = now_ns();
          {
            Tracer::Scope span(&tracer, use_engine ? id_e : id_t);
            if (use_engine) {
              serve(engine, shape, work.data());
            } else if (shape.count > 1) {
              direct->execute_many(work.data(), shape.count);
            } else {
              direct->execute(work.data());
            }
          }
          (use_engine ? via_engine : via_transform).add(static_cast<double>(now_ns() - t0));
        }
      }
      result.set(result.layer, std::string("engine.overhead_ns.") + label,
                 via_engine.median() - via_transform.median(), "ns", via_engine.count());
    }

    // submit()+get() on its own: the coalescing window with nothing to merge.
    {
      const auto id = tracer.intern("engine.submit.probe.n8");
      LatencyRecorder us;
      const auto& input = inputs.pool[kSubmitShape][0];
      std::vector<double> work(input);
      for (int r = 0; r < 400; ++r) {
        std::memcpy(work.data(), input.data(), work.size() * sizeof(double));
        const std::uint64_t t0 = now_ns();
        {
          Tracer::Scope span(&tracer, id, static_cast<std::uint64_t>(r));
          engine.submit(8, work.data()).get();
        }
        us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      result.set(result.layer, "engine.submit_us", us.median(), "us", us.count());
    }
  }

  // Caller scaling and telemetry cost on the engine_small mix, and the
  // dispatcher's batching with only submitters.
  auto mix_rate = [&](int callers, int submitters, bool telemetry, double* per_batch) {
    wht::EngineOptions o;
    o.telemetry = telemetry;
    wht::Engine engine(o);
    first_touch(engine, inputs);
    Phase phase;
    const auto before = engine.stats();
    run_mix(engine, inputs, callers, submitters, 1.0, mix(seed, 9), phase, nullptr,
            nullptr);
    if (per_batch != nullptr) *per_batch = vectors_per_batch(before, engine.stats());
    return phase.req_per_s();
  };
  double per_batch = 0.0;
  const double t1 = mix_rate(1, 0, true, nullptr);
  const double t4 = mix_rate(kProbeCallers, 0, true, nullptr);
  const double t4_off = mix_rate(kProbeCallers, 0, false, nullptr);
  mix_rate(kProbeCallers, kProbeCallers, true, &per_batch);
  result.set(result.layer, "engine.vectors_per_batch", per_batch, "vectors");
  result.set(result.layer, "engine.req_per_s.t1", t1, "req/s");
  result.set(result.layer, "engine.scaling_t4_over_t1", t4 / t1, "ratio");
  result.set(result.layer, "telemetry.overhead_frac", 1.0 - t4 / t4_off, "ratio");
}

}  // namespace perfbench
