#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/rng.hpp"

namespace perfbench {

void Phase::record(double us, bool is_batch, double elems, std::size_t slice,
                   double busy_s) {
  if (slice >= slices.size()) slices.resize(slice + 1);
  Slice& sl = slices[slice];
  (is_batch ? sl.batch : sl.single).add(us);
  ++sl.completed;
  sl.elements += elems;
  sl.elapsed_s += busy_s;
  ++completed;
  elements += elems;
}

void Phase::merge(const Phase& other) {
  if (slices.size() < other.slices.size()) slices.resize(other.slices.size());
  for (std::size_t i = 0; i < other.slices.size(); ++i) {
    Slice& mine = slices[i];
    const Slice& theirs = other.slices[i];
    mine.single.merge(theirs.single);
    mine.batch.merge(theirs.batch);
    mine.completed += theirs.completed;
    mine.elements += theirs.elements;
  }
  attempted += other.attempted;
  failed += other.failed;
  completed += other.completed;
  elements += other.elements;
}

void Phase::set_wall_slices(double slice_s) {
  for (std::size_t i = 0; i < slices.size(); ++i) {
    slices[i].elapsed_s = std::min(slice_s, wall_s - static_cast<double>(i) * slice_s);
  }
  if (!slices.empty() && slices.back().elapsed_s < slice_s / 2) slices.pop_back();
}

namespace {

template <typename F>
double median_over(const std::vector<Slice>& slices, const F& value) {
  std::vector<double> values;
  for (const Slice& s : slices) {
    if (s.elapsed_s > 0.0 && s.completed > 0) values.push_back(value(s));
  }
  return values.empty() ? 0.0 : median(values);
}

}  // namespace

double Phase::req_per_s() const {
  return median_over(slices, [](const Slice& s) { return s.completed / s.elapsed_s; });
}

double Phase::melem_per_s() const {
  return median_over(slices, [](const Slice& s) { return s.elements / s.elapsed_s / 1e6; });
}

double Phase::sliced_quantile(double q, bool singles_only) const {
  std::vector<double> values;
  for (const Slice& s : slices) {
    LatencyRecorder rec = s.single;
    if (!singles_only) rec.merge(s.batch);
    if (rec.supports(q)) values.push_back(rec.quantile(q));
  }
  if (!values.empty()) return median(values);
  // A run too slow to fill one slice: the whole phase, if it has the samples.
  const LatencyRecorder rec = whole(singles_only ? Kind::kSingle : Kind::kAll);
  return rec.supports(q) ? rec.quantile(q) : std::numeric_limits<double>::infinity();
}

LatencyRecorder Phase::whole(Kind kind) const {
  LatencyRecorder out;
  for (const Slice& s : slices) {
    if (kind != Kind::kBatch) out.merge(s.single);
    if (kind != Kind::kSingle) out.merge(s.batch);
  }
  return out;
}

void Result::set_phase_metrics(const Phase& phase, const std::vector<double>& setups) {
  set(e2e, "setup_s", median(setups), "s", setups.size());
  set(e2e, "melem_per_s", phase.melem_per_s(), "Melem/s", phase.completed);
  set(e2e, "req_per_s", phase.req_per_s(), "req/s", phase.completed);
  // Recorded, not gated: host speed swings move them between runs by more
  // than the largest bound BENCHMARK.json may set (see README.md).
  set(info, "p50_us", phase.sliced_quantile(0.50), "us", phase.completed);
  set(info, "p99_us", phase.sliced_quantile(0.99), "us", phase.completed);
  set(info, "slices", static_cast<double>(phase.slices.size()), "count");
  for (const auto& [name, kind] : {std::pair<const char*, Phase::Kind>{"single", Phase::Kind::kSingle},
                                   {"batch", Phase::Kind::kBatch}}) {
    const LatencyRecorder rec = phase.whole(kind);
    if (rec.count() == 0) continue;
    set(info, std::string(name) + "_p50_us", rec.quantile(0.50), "us", rec.count());
    // A class's p99 is reported only where ten samples lie beyond it;
    // otherwise the highest percentile that has them stands in, by name.
    const double q = rec.supports(0.99) ? 0.99 : rec.tail_level();
    if (q > 0.0) {
      char label[32];
      std::snprintf(label, sizeof(label), "_p%g_us", q * 100.0);
      set(info, std::string(name) + label, rec.quantile(q), "us", rec.count());
    }
  }
  attempted += phase.attempted;
  failed += phase.failed;
}

void Gate::check(int n, const double* input, const double* served,
                 std::size_t count, const whtlab::core::Plan* plan) {
  const wht::Transform& ref = reference(n, plan);
  const std::size_t size = std::size_t{1} << n;
  std::vector<double> expected(input, input + size * count);
  for (std::size_t v = 0; v < count; ++v) ref.execute(expected.data() + v * size);
  ++result_.checked;
  if (std::memcmp(expected.data(), served, expected.size() * sizeof(double)) != 0) {
    ++result_.mismatches;
  }
}

void Gate::check_consuming(int n, double* input, const double* served,
                           const whtlab::core::Plan* plan) {
  reference(n, plan).execute(input);
  ++result_.checked;
  if (std::memcmp(input, served, (std::size_t{1} << n) * sizeof(double)) != 0) {
    ++result_.mismatches;
  }
}

const wht::Transform& Gate::reference(int n, const whtlab::core::Plan* plan) {
  auto& slot = refs_[n];
  if (!slot) {
    slot = std::make_unique<wht::Transform>(
        plan != nullptr
            ? wht::Planner().backend("generated").fixed(*plan).plan()
            : wht::Planner().backend("generated").plan(n));
  }
  return *slot;
}

std::vector<ShapeData> make_shapes(const std::vector<ShapeSpec>& specs,
                                   std::uint64_t seed, std::uint64_t stream) {
  std::vector<ShapeData> data;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    ShapeData d;
    d.spec = specs[s];
    const std::size_t doubles = d.spec.count << d.spec.n;
    for (std::size_t i = 0; i < d.spec.inputs; ++i) {
      d.pool.push_back(seeded_vector(doubles, seed, stream + s * 16 + i));
    }
    d.work.assign(doubles, 0.0);
    d.sample_at = mix(seed, stream + s) % d.spec.per_round;
    data.push_back(std::move(d));
  }
  return data;
}

void run_rounds(std::vector<ShapeData>& data, const Rounds& rounds,
                const ServeFn& serve, std::uint64_t seed, double seconds,
                Phase& phase, Tracer* tracer,
                const std::vector<std::uint32_t>& span_ids) {
  // A block is a run of requests of one shape, served back to back.
  struct Block {
    std::size_t shape;
    std::uint64_t count;
  };
  std::vector<Block> blocks;
  for (std::size_t s = 0; s < data.size(); ++s) {
    const std::uint64_t count = std::max<std::uint64_t>(1, data[s].spec.per_round / rounds.divide);
    if (rounds.interleave) {
      blocks.insert(blocks.end(), count, Block{s, 1});
    } else {
      blocks.push_back({s, count});
    }
  }
  whtlab::util::Rng rng(seed);
  std::uint64_t request = 0;
  phase.usage_before = self_usage();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t r = 0; r < rounds.min_rounds || now_ns() < deadline; ++r) {
    for (std::size_t i = blocks.size() - 1; i > 0; --i) {
      std::swap(blocks[i], blocks[rng.below(i + 1)]);
    }
    std::vector<std::uint64_t> seen(data.size(), 0);
    for (const Block& block : blocks) {
      ShapeData& d = data[block.shape];
      const bool is_batch = d.spec.count > 1;
      const auto elems = static_cast<double>(d.work.size());
      for (std::uint64_t k = 0; k < block.count; ++k, ++request) {
        const bool keep = rounds.keep_samples && !d.spec.in_place && d.sample.empty() &&
                          seen[block.shape]++ == d.sample_at;
        const std::size_t input = rng.below(d.pool.size());
        std::memcpy(d.work.data(), d.pool[input].data(), d.work.size() * sizeof(double));
        ++phase.attempted;
        const std::uint64_t t0 = now_ns();
        try {
          Tracer::Scope span(tracer, tracer != nullptr ? span_ids[block.shape] : 0, request);
          serve(block.shape, d.work.data());
        } catch (const std::exception&) {
          ++phase.failed;
          continue;
        }
        const double ns = static_cast<double>(now_ns() - t0);
        phase.record(ns * 1e-3, is_batch, elems, r / rounds.rounds_per_slice, ns * 1e-9);
        d.work_input = input;
        if (keep) {
          d.sample_input = input;
          d.sample = d.work;
        }
      }
    }
  }
  phase.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  phase.usage_after = self_usage();
}

void check_shapes(Result& result, std::vector<ShapeData>& data,
                  const std::vector<whtlab::core::Plan>& plans) {
  Gate gate(result);
  for (std::size_t s = 0; s < data.size(); ++s) {
    ShapeData& d = data[s];
    if (!d.sample.empty()) {
      gate.check(d.spec.n, d.pool[d.sample_input].data(), d.sample.data(), d.spec.count,
                 &plans[s]);
    }
    if (d.spec.in_place) {
      gate.check_consuming(d.spec.n, d.pool[d.work_input].data(), d.work.data(), &plans[s]);
    }
  }
}

void set_trace_overhead(Result& result, const Phase& untraced,
                        const Phase& traced) {
  result.set(result.layer, "trace.overhead_frac",
             traced.whole(Phase::Kind::kAll).mean() / untraced.whole(Phase::Kind::kAll).mean() - 1.0,
             "ratio", traced.completed);
}

void set_proc_metrics(Result& result, const Phase& phase) {
  const ProcUsage& a = phase.usage_before;
  const ProcUsage& b = phase.usage_after;
  result.set(result.layer, "proc.cpu_over_wall", (b.cpu_s - a.cpu_s) / phase.wall_s,
             "ratio");
  const double switches = static_cast<double>(
      (b.voluntary + b.involuntary) - (a.voluntary + a.involuntary));
  result.set(result.layer, "proc.ctxsw_per_req",
             switches / static_cast<double>(std::max<std::uint64_t>(phase.completed, 1)),
             "count/req", phase.completed);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return whtlab::util::splitmix64_next(state);
}

std::vector<double> seeded_vector(std::size_t count, std::uint64_t seed,
                                  std::uint64_t stream) {
  whtlab::util::Rng rng(mix(seed, stream));
  std::vector<double> out(count);
  for (double& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

}  // namespace perfbench
