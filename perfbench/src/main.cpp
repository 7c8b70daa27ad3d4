// whtbench -- the perfbench workload runner.
//
//   whtbench --workload <kernel_large|engine_small|large_mt|whtd_open>
//            --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--commit <sha>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced run
// and prints every per-layer metric.  A table with units and sample counts
// goes to stderr; the last line of stdout is the JSON result.  The result
// record (metrics, host metadata) and the span dump are written to --out.
// Exit status: 0 when every checked output matched `generated` bit for
// bit, 1 on a mismatch or a failed run, 2 on usage errors.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "simd/cpu_features.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

void print_json_metrics(std::FILE* out, const MetricMap& metrics, bool samples) {
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"", first ? "" : ", ",
                 name.c_str(), m.value, m.unit.c_str());
    if (samples) std::fprintf(out, ", \"samples\": %llu", static_cast<unsigned long long>(m.samples));
    std::fprintf(out, "}");
    first = false;
  }
  std::fprintf(out, "}");
}

void print_table(const char* title, const MetricMap& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %-10s n=%llu\n", name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
}

bool all_finite(const MetricMap& metrics) {
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "whtbench: metric %s is not finite\n", name.c_str());
      return false;
    }
  }
  return true;
}

void fill_meta(Result& result, const Options& options, const std::string& commit) {
  const auto& caches = whtlab::simd::cache_sizes();
  result.meta["workload"] = options.workload;
  result.meta["seed"] = std::to_string(options.seed);
  result.meta["seconds"] = std::to_string(options.seconds);
  result.meta["trace"] = options.trace ? "1" : "0";
  result.meta["commit"] = commit;
  result.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.meta["simd_level"] = whtlab::simd::to_string(whtlab::simd::detected_level());
  result.meta["l1d_bytes"] = std::to_string(caches.l1d_bytes);
  result.meta["l2_bytes"] = std::to_string(caches.l2_bytes);
  result.meta["llc_bytes"] = std::to_string(caches.l3_bytes);
}

bool write_record(const Options& options, const Result& result) {
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"meta\": {");
  bool first = true;
  for (const auto& [k, v] : result.meta) {
    std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(), v.c_str());
    first = false;
  }
  std::fprintf(out, "},\n \"attempted\": %llu, \"failed\": %llu, \"checked\": %llu, "
               "\"mismatches\": %llu,\n \"end_to_end\": ",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.checked),
               static_cast<unsigned long long>(result.mismatches));
  print_json_metrics(out, result.e2e, true);
  std::fprintf(out, ",\n \"per_layer\": ");
  print_json_metrics(out, result.layer, true);
  std::fprintf(out, ",\n \"info\": ");
  print_json_metrics(out, result.info, true);
  // Where the traced run's time went: per span name, total and self time
  // (self = minus the time its child spans cover).
  std::fprintf(out, ",\n \"spans\": {");
  first = true;
  for (const auto& [name, st] : result.spans) {
    std::fprintf(out, "%s\"%s\": {\"count\": %llu, \"total_ms\": %.6f, \"self_ms\": %.6f, "
                 "\"median_us\": %.6f}",
                 first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(st.count),
                 st.total_ns * 1e-6, st.self_ns * 1e-6, st.median_ns * 1e-3);
    first = false;
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  whtlab::util::Cli cli;
  cli.add_flag("workload", "kernel_large | engine_small | large_mt | whtd_open");
  cli.add_flag("seed", "input seed", "1");
  cli.add_flag("seconds", "timed seconds", "10");
  cli.add_flag("trace", "0: end-to-end metrics, 1: traced run, per-layer metrics", "0");
  cli.add_flag("out", "directory for the result record and span dump", ".");
  cli.add_flag("commit", "commit id recorded in the result", "unknown");
  if (!cli.parse(argc, argv)) return 2;

  Options options;
  options.workload = cli.get("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.out_dir = cli.get("out", ".");
  using Runner = void (*)(const Options&, Result&, Tracer*);
  Runner runner = nullptr;
  if (options.workload == "kernel_large") runner = run_kernel_large;
  if (options.workload == "engine_small") runner = run_engine_small;
  if (options.workload == "large_mt") runner = run_large_mt;
  if (options.workload == "whtd_open") runner = run_whtd_open;
  if (runner == nullptr || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "whtbench: unknown workload or bad --seconds\n");
    return 2;
  }

  Result result;
  fill_meta(result, options, cli.get("commit", "unknown"));
  try {
    if (!options.trace) {
      runner(options, result, nullptr);
    } else {
      Tracer tracer;
      runner(options, result, &tracer);
      // Layers the workload's own traffic does not reach.  The ipc probe
      // forks its daemon, so it runs while no other thread is alive.
      if (options.workload != "whtd_open") probe_ipc(tracer, result, options.seed);
      if (options.workload != "kernel_large") probe_kernels(tracer, result, options.seed);
      probe_engine(tracer, result, options.seed, options.workload == "kernel_large");
      if (options.workload != "large_mt") probe_parallel(tracer, result, options.seed);
      result.meta["spans"] = std::to_string(tracer.span_count());
      result.spans = tracer.stats();
      const std::string spans = options.out_dir + "/" + options.workload + "-seed" +
                                std::to_string(options.seed) + "-spans.csv";
      if (!tracer.write_csv(spans)) {
        std::fprintf(stderr, "whtbench: cannot write %s\n", spans.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whtbench: %s\n", e.what());
    return 1;
  }

  const std::uint64_t failed = result.failed + result.mismatches;
  result.set(result.info, "fail_frac",
             static_cast<double>(failed) /
                 static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
             "ratio", result.attempted);
  result.set(result.info, "checked_outputs", static_cast<double>(result.checked), "count");
  const MetricMap& reported = options.trace ? result.layer : result.e2e;
  print_table(options.trace ? "per-layer (traced run)" : "end-to-end", reported);
  print_table("also recorded", result.info);
  std::fprintf(stderr, "outputs checked against generated: %llu, mismatches: %llu\n",
               static_cast<unsigned long long>(result.checked),
               static_cast<unsigned long long>(result.mismatches));
  if (!write_record(options, result)) {
    std::fprintf(stderr, "whtbench: cannot write the result record to %s\n",
                 options.out_dir.c_str());
  }
  const bool correct = result.checked > 0 && result.mismatches == 0;
  if (!all_finite(reported) || result.attempted == 0) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(failed));
  print_json_metrics(stdout, reported, false);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
