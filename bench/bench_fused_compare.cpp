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
// The JSON's "passes" array is the per-pass attribution.  Its "l2" rows
// are the pass shapes the default blocking emits for n in [nmin, nmax] that
// fit one L2 block, each timed alone (a one-pass Schedule through the
// fused executor) on a 2^l2_block_log2-double block the untimed refill
// leaves L2-resident.  Its "stream" rows are the streaming passes (stages
// above the L2 block, each a full sweep) of every n in --stream-n, timed
// alone on the whole 2^n array.  "transforms" times the whole schedule at
// those sizes.  Every cell is in ns per element of the block, on
// bench-owned mmap memory at buffer offsets 0 and 16 B from a 64-B line,
// once madvised MADV_NOHUGEPAGE ("4k") and once MADV_HUGEPAGE ("2m"; the
// fraction the kernel actually backed with huge pages is recorded).  The
// two offsets, and for strided l2 rows a radix-2 pass at the same stage
// (aligned, 4k), are timed rep by rep in alternation, so a change in the
// host's speed hits them alike: "vs_radix2" (what the extra stages cost)
// and "offset16_vs_aligned" (what a line-splitting base costs) are medians
// of per-rep ratios.
//
// Run:  ./bench_fused_compare [--out FILE] [--nmin N] [--nmax N] [--reps N]
//                             [--level scalar|avx2|avx512] [--no-baseline]
//                             [--wisdom FILE] [--stream-n LIST]
//       (util::Cli parsing: --name value and --name=value both work;
//        --benchmark_repetitions is an alias for --reps;
//        --no-baseline skips the slow scalar column for quick ablations —
//        its JSON fields become null;
//        --wisdom caches the kEstimate winners so repeat runs skip the
//        simd planning pass — see bench_plan_time for the planning-cost
//        trajectory itself;
//        --stream-n is a comma list of sizes whose streaming passes and
//        whole schedule join the per-pass table, default none; the
//        committed BENCH_fused.json uses --stream-n 22,26, and the 2^26
//        array is 512 MiB.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
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

#include <sys/mman.h>

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

constexpr std::uint64_t kHugePage = std::uint64_t{2} << 20;

/// Bench-owned memory: an anonymous mapping whose data starts on a 2 MiB
/// boundary and is madvised to one page size before its first touch, so the
/// page size is the bench's choice, not the allocator's.  No fallback:
/// whether the kernel honoured MADV_HUGEPAGE is read back (huge_frac).
class PageBuffer {
 public:
  PageBuffer(std::uint64_t doubles, bool huge)
      : data_bytes_(doubles * sizeof(double)),
        bytes_((data_bytes_ + kHugePage - 1) / kHugePage * kHugePage +
               kHugePage) {
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) throw std::bad_alloc();
    const auto addr = reinterpret_cast<std::uintptr_t>(base_);
    data_ = reinterpret_cast<double*>((addr + kHugePage - 1) / kHugePage *
                                      kHugePage);
    madvise(base_, bytes_, huge ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
    std::memset(data_, 0, data_bytes_);
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer() { munmap(base_, bytes_); }

  double* data() const { return data_; }

  /// Share of the data bytes backed by transparent huge pages: the
  /// mapping's AnonHugePages in /proc/self/smaps.
  double huge_frac() const {
    std::ifstream smaps("/proc/self/smaps");
    const auto want = reinterpret_cast<std::uintptr_t>(data_);
    bool inside = false;
    std::string line;
    while (std::getline(smaps, line)) {
      unsigned long lo = 0, hi = 0, kb = 0;
      if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
        inside = lo <= want && want < hi;
      } else if (inside &&
                 std::sscanf(line.c_str(), "AnonHugePages: %lu kB", &kb) == 1) {
        return std::min(1.0, static_cast<double>(kb) * 1024.0 /
                                 static_cast<double>(data_bytes_));
      }
    }
    return 0.0;
  }

 private:
  std::uint64_t data_bytes_, bytes_;
  void* base_ = nullptr;
  double* data_ = nullptr;
};

/// The bracketed mode of /sys/kernel/mm/transparent_hugepage/enabled, or
/// "unknown".
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('[');
  const auto close = text.find(']');
  if (open == std::string::npos || close == std::string::npos) return "unknown";
  return text.substr(open + 1, close - open - 1);
}

/// Page settings and buffer offsets of the per-pass cells.
constexpr const char* kPages[2] = {"4k", "2m"};
constexpr std::uint64_t kOffsetBytes[2] = {0, 16};

struct Cell {
  double ns = 0.0, iqr_ns = 0.0;  ///< median and IQR ns per element
};

/// One per-pass table row: a schedule timed on a 2^n-double buffer.
struct PassRow {
  const char* kind = "";  ///< "l2", "stream" or "transform"
  int n = 0;              ///< log2 of the doubles the schedule covers
  int stage = 0, radix_log2 = 0;  ///< the pass; transform rows: 0 and n
  core::Schedule schedule;
  Cell cells[2][2];              ///< [page setting][offset]
  double offset16_vs_aligned[2] = {0.0, 0.0};  ///< per page setting
  double huge_frac[2] = {0.0, 0.0};            ///< per page setting
  double radix2_ns = -1.0;  ///< radix-2 pass at the stage (4k, aligned)
  double vs_radix2 = -1.0;  ///< median of per-rep ratios ns / radix2_ns
};

PassRow make_row(const char* kind, int n, int stage, int radix_log2,
                 core::Schedule schedule) {
  PassRow row;
  row.kind = kind;
  row.n = n;
  row.stage = stage;
  row.radix_log2 = radix_log2;
  row.schedule = std::move(schedule);
  return row;
}

/// A row timing the single pass (stage, radix_log2) of a round of
/// 2^round_log2-double blocks across 2^n doubles.
PassRow pass_row(const char* kind, int n, int stage, int radix_log2,
                 int round_log2) {
  return make_row(
      kind, n, stage, radix_log2,
      core::Schedule{
          n, {core::ScheduleRound{round_log2, {}, {{stage, radix_log2}}}}});
}

/// Times `schedules` on x rep by rep in alternation (the order reversed
/// every other rep), each sample `inner` back-to-back runs after an
/// untimed refill of the 2^n doubles; one untimed warmup round first.
/// Returns ns per element, samples[variant][rep].
std::vector<std::vector<double>> time_alternating(
    const std::vector<std::pair<const core::Schedule*, double*>>& variants,
    int n, simd::SimdLevel level, int reps) {
  const std::uint64_t size = std::uint64_t{1} << n;
  const int inner = 1 << std::max(0, 20 - n);
  const double ns_per_cycle_elem = 1e9 / perf::cycles_per_second() /
                                   static_cast<double>(size) / inner;
  std::vector<double> pattern(4096);
  util::Rng rng(static_cast<std::uint64_t>(n) * 131 + 7);
  for (double& v : pattern) v = rng.uniform(-1, 1);
  const auto sample = [&](const core::Schedule& schedule, double* x) {
    for (std::uint64_t i = 0; i < size; ++i) x[i] = pattern[i % 4096];
    const std::uint64_t begin = perf::read_cycles();
    for (int i = 0; i < inner; ++i) simd::execute_fused(schedule, x, 1, level);
    return static_cast<double>(perf::read_cycles() - begin) *
           ns_per_cycle_elem;
  };
  std::vector<std::vector<double>> samples(variants.size());
  for (const auto& [schedule, x] : variants) sample(*schedule, x);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const std::size_t v = r % 2 == 0 ? i : variants.size() - 1 - i;
      samples[v].push_back(sample(*variants[v].first, variants[v].second));
    }
  }
  return samples;
}

double median_ratio(const std::vector<double>& num,
                    const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < num.size(); ++i) ratios.push_back(num[i] / den[i]);
  return stats::quartiles(ratios).q2;
}

/// Fills every cell of `rows`, which all cover 2^n doubles: one buffer per
/// page setting, the two offsets (and for strided l2 rows, on 4k pages, a
/// radix-2 pass at the same stage) timed in alternation.
void time_rows(std::vector<PassRow*> rows, int n, simd::SimdLevel level,
               int reps) {
  const std::uint64_t pad = kOffsetBytes[1] / sizeof(double);
  for (int pages = 0; pages < 2; ++pages) {
    const PageBuffer buffer((std::uint64_t{1} << n) + pad, pages == 1);
    const double huge_frac = buffer.huge_frac();
    for (PassRow* row : rows) {
      row->huge_frac[pages] = huge_frac;
      const bool paired = pages == 0 && std::string(row->kind) == "l2" &&
                          row->stage > 0 && row->radix_log2 > 1;
      core::Schedule radix2;
      if (paired) {
        radix2 = row->schedule;
        radix2.rounds[0].passes[0].radix_log2 = 1;
      }
      std::vector<std::pair<const core::Schedule*, double*>> variants;
      for (const std::uint64_t offset : kOffsetBytes) {
        variants.emplace_back(&row->schedule,
                              buffer.data() + offset / sizeof(double));
      }
      if (paired) variants.emplace_back(&radix2, buffer.data());
      const auto samples = time_alternating(variants, n, level, reps);
      for (int o = 0; o < 2; ++o) {
        const stats::Quartiles q = stats::quartiles(samples[o]);
        row->cells[pages][o] = Cell{q.q2, q.iqr()};
      }
      row->offset16_vs_aligned[pages] = median_ratio(samples[1], samples[0]);
      if (paired) {
        row->radix2_ns = stats::quartiles(samples[2]).q2;
        row->vs_radix2 = median_ratio(samples[0], samples[2]);
      } else if (pages == 0 && row->stage > 0 &&
                 std::string(row->kind) == "l2") {
        row->radix2_ns = row->cells[0][0].ns;
        row->vs_radix2 = 1.0;
      }
    }
  }
}

void print_row(const PassRow& row) {
  std::printf("%9s %4d %6d %6d", row.kind, row.n, row.stage,
              1 << row.radix_log2);
  for (int pages = 0; pages < 2; ++pages) {
    std::printf(" %9.3f %9.3f %6.2fx", row.cells[pages][0].ns,
                row.cells[pages][1].ns, row.offset16_vs_aligned[pages]);
  }
  if (row.vs_radix2 > 0) std::printf(" %6.2fx", row.vs_radix2);
  std::printf("\n");
}

void write_rows(std::FILE* f, const std::vector<PassRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PassRow& row = rows[i];
    std::string radix2_fields = "null, \"vs_radix2\": null";
    if (row.radix2_ns >= 0) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.4f, \"vs_radix2\": %.3f",
                    row.radix2_ns, row.vs_radix2);
      radix2_fields = buffer;
    }
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"n\": %d, \"stage\": %d, "
                 "\"radix_log2\": %d, \"ns_per_elem\": %.4f, "
                 "\"iqr_ns_per_elem\": %.4f, \"radix2_ns_per_elem\": %s, "
                 "\"cells\": [",
                 row.kind, row.n, row.stage, row.radix_log2,
                 row.cells[0][0].ns, row.cells[0][0].iqr_ns,
                 radix2_fields.c_str());
    for (int pages = 0; pages < 2; ++pages) {
      for (int o = 0; o < 2; ++o) {
        std::fprintf(f,
                     "%s{\"pages\": \"%s\", \"offset_bytes\": %llu, "
                     "\"ns_per_elem\": %.4f, \"iqr_ns_per_elem\": %.4f}",
                     pages + o > 0 ? ", " : "", kPages[pages],
                     static_cast<unsigned long long>(kOffsetBytes[o]),
                     row.cells[pages][o].ns, row.cells[pages][o].iqr_ns);
      }
    }
    std::fprintf(f,
                 "], \"offset16_vs_aligned\": {\"4k\": %.3f, \"2m\": %.3f}, "
                 "\"huge_frac\": {\"4k\": %.2f, \"2m\": %.2f}}%s\n",
                 row.offset16_vs_aligned[0], row.offset16_vs_aligned[1],
                 row.huge_frac[0], row.huge_frac[1],
                 i + 1 < rows.size() ? "," : "");
  }
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
  cli.add_flag("stream-n",
               "sizes whose streaming passes join the per-pass table", "");
  if (!cli.parse(argc, argv)) return 2;

  const std::string out = cli.get("out");
  const std::string wisdom = cli.get("wisdom");
  const int nmin = static_cast<int>(cli.get_int("nmin", 14));
  const int nmax = static_cast<int>(cli.get_int("nmax", 22));
  const int reps = static_cast<int>(cli.has("benchmark_repetitions")
                                        ? cli.get_int("benchmark_repetitions", 9)
                                        : cli.get_int("reps", 9));
  const bool baseline = !cli.has("no-baseline");
  const std::vector<int> stream_ns = cli.get_int_list("stream-n");
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

  // Per-pass table: the distinct in-L2 pass shapes on one L2 block, then
  // the streaming passes and whole schedules of the --stream-n sizes.
  const int block_log2 = blocking.l2_block_log2;
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  const int pass_reps = std::max(reps, 9);  // a pass costs microseconds
  std::vector<PassRow> passes, transforms;
  for (const auto& [stage, radix_log2] : shapes) {
    if (stage + radix_log2 > block_log2) continue;  // streaming: beyond L2
    passes.push_back(pass_row("l2", block_log2, stage, radix_log2, block_log2));
  }
  const std::size_t l2_rows = passes.size();
  for (const int n : stream_ns) {
    const core::Schedule schedule = core::lower_size(n, blocking);
    for (const core::ScheduleRound& round : schedule.rounds) {
      for (const core::SchedulePass& pass : round.passes) {
        if (pass.stage < block_log2) continue;
        passes.push_back(pass_row("stream", n, pass.stage, pass.radix_log2,
                                  round.block_log2));
      }
    }
    transforms.push_back(make_row("transform", n, 0, n, schedule));
  }
  std::printf(
      "per-pass ns/elem (l2: one 2^%d block; stream: the whole 2^n array), "
      "buffer at +0 / +16 B:\n%9s %4s %6s %6s %9s %9s %7s %9s %9s %7s %7s\n",
      block_log2, "kind", "n", "stage", "radix", "4k +0", "4k +16", "ratio",
      "2m +0", "2m +16", "ratio", "vs r2");
  {
    std::vector<PassRow*> l2;
    for (std::size_t i = 0; i < l2_rows; ++i) l2.push_back(&passes[i]);
    if (!l2.empty()) time_rows(l2, block_log2, level, pass_reps);
  }
  for (const int n : stream_ns) {
    std::vector<PassRow*> at_n;
    for (std::size_t i = l2_rows; i < passes.size(); ++i) {
      if (passes[i].n == n) at_n.push_back(&passes[i]);
    }
    for (PassRow& row : transforms) {
      if (row.n == n) at_n.push_back(&row);
    }
    time_rows(at_n, n, level, pass_reps);
  }
  for (const PassRow& row : passes) print_row(row);
  for (const PassRow& row : transforms) print_row(row);

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
               "  \"level\": \"%s\",\n  \"l1d_bytes\": %zu,\n"
               "  \"l2_bytes\": %zu,\n  \"l3_bytes\": %zu,\n"
               "  \"thp_enabled\": \"%s\",\n"
               "  \"vector_width\": %d,\n  \"l1_block_log2\": %d,\n"
               "  \"l2_block_log2\": %d,\n  \"repetitions\": %d,\n"
               "  \"aggregation\": \"median cycles per cell and the "
               "interquartile range over its reps, geomean across sizes\",\n"
               "  \"parity\": \"bit-identical vs generated\",\n"
               "  \"geomean_fused_vs_simd_n18plus\": %.3f,\n"
               "  \"results\": [\n",
               std::thread::hardware_concurrency(), simd::to_string(level),
               simd::cache_sizes().l1d_bytes, simd::cache_sizes().l2_bytes,
               simd::cache_sizes().l3_bytes, thp_mode().c_str(),
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
               "  \"passes_repetitions\": %d,\n"
               "  \"passes_aggregation\": \"ns per element: median and IQR "
               "over reps; offset16_vs_aligned and vs_radix2 are medians of "
               "per-rep ratios of cells timed in alternation\",\n"
               "  \"passes\": [\n",
               block_log2, pass_reps);
  write_rows(f, passes);
  std::fprintf(f, "  ],\n  \"transforms\": [\n");
  write_rows(f, transforms);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
