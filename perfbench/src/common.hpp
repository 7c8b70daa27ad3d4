// Shared pieces of the perfbench workloads: options, the metric sink, the
// correctness gate and seeded inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/wht.hpp"
#include "procstat.hpp"
#include "recorder.hpp"
#include "trace.hpp"

namespace perfbench {

namespace wht = whtlab::api;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the result record and span dump go
};

/// Set-up repetitions per run; setup_s is their median.  Workloads whose
/// set-up takes milliseconds repeat it more, as its spread is larger.
inline constexpr int kSetups = 3;
inline constexpr int kCheapSetups = 101;

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value (1 = one measurement)
};
using MetricMap = std::map<std::string, Metric>;

/// One stretch of a timed phase: a few rounds, or a fixed span of wall time.
struct Slice {
  LatencyRecorder single, batch;  ///< us
  std::uint64_t completed = 0;
  double elements = 0.0;
  double elapsed_s = 0.0;
};

/// Requests and outcomes of one timed phase, with their latencies in us.
///
/// The end-to-end numbers are medians over the phase's slices: a burst of
/// contention on the shared host slows the slices it lands in, not the run.
struct Phase {
  std::vector<Slice> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< refused, typed non-OK, exceptions
  std::uint64_t completed = 0;
  double elements = 0.0;        ///< sum of 2^n over completed vectors
  double wall_s = 0.0;          ///< wall time of the whole phase
  ProcUsage usage_before, usage_after;

  /// One completed request.  `busy_s` is added to the slice's elapsed time
  /// where that is the time spent in calls (one caller); callers that run
  /// in parallel set slice times from the wall clock (set_wall_slices).
  void record(double us, bool is_batch, double elems, std::size_t slice,
              double busy_s = 0.0);

  /// Adds another phase's requests, latencies and slices (index by index;
  /// not its usage samples or times).
  void merge(const Phase& other);

  /// Slices of `slice_s` wall seconds over a phase of wall_s; a last slice
  /// shorter than half of that is dropped.
  void set_wall_slices(double slice_s);

  double req_per_s() const;    ///< median over slices
  double melem_per_s() const;  ///< median over slices
  /// Median over slices of each slice's q-quantile (singles only or every
  /// request), counting slices with ten samples beyond it; when no slice
  /// has them, the whole phase's quantile; +inf when not even that.
  double sliced_quantile(double q, bool singles_only = false) const;

  enum class Kind { kAll, kSingle, kBatch };
  /// Every latency of the phase of one kind.
  LatencyRecorder whole(Kind kind) const;
};

/// Everything one invocation reports.
struct Result {
  MetricMap e2e;    ///< end-to-end metrics (untraced run)
  MetricMap layer;  ///< per-layer metrics (traced run)
  MetricMap info;   ///< printed and recorded, not gated
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;     ///< outputs compared against `generated`
  std::uint64_t mismatches = 0;
  std::map<std::string, std::string> meta;
  std::map<std::string, Tracer::Stats> spans;  ///< traced run: per span name

  void set(MetricMap& map, const std::string& name, double value,
           const std::string& unit, std::uint64_t samples = 1) {
    map[name] = {value, unit, samples};
  }
  /// The end-to-end metrics every workload reports, from its timed phase
  /// and its set-up times.
  void set_phase_metrics(const Phase& phase, const std::vector<double>& setups);
};

/// Bit-exact comparison of served outputs against the `generated` backend.
class Gate {
 public:
  explicit Gate(Result& result) : result_(result) {}

  /// Runs generated WHT(2^n) over `count` packed copies of `input` (or
  /// `count` packed vectors) and compares bit for bit with `served`.
  /// `plan` pins the reference plan (outputs are plan-independent; pinning
  /// only skips a search at large n).
  void check(int n, const double* input, const double* served,
             std::size_t count = 1, const whtlab::core::Plan* plan = nullptr);

  /// Single-vector check that transforms `input` in place (no copy; for
  /// vectors too large to duplicate).
  void check_consuming(int n, double* input, const double* served,
                       const whtlab::core::Plan* plan = nullptr);

 private:
  const wht::Transform& reference(int n, const whtlab::core::Plan* plan);

  Result& result_;
  std::map<int, std::unique_ptr<wht::Transform>> refs_;
};

// --- round-based workloads (kernel_large, large_mt) -------------------------

/// One request shape of a round-based workload.
struct ShapeSpec {
  int n = 0;
  std::size_t count = 1;        ///< vectors per request
  std::uint64_t per_round = 1;  ///< requests per round
  std::size_t inputs = 1;       ///< distinct seeded inputs
  /// Too large to keep a copy of an output: the last output is checked in
  /// place instead of a kept sample.
  bool in_place = false;
};

/// A shape's seeded inputs, the buffer it is served in, and one output kept
/// for the correctness gate: the shape's request at a seeded position of
/// the first round, so the kept bytes (and the peak RSS) do not depend on
/// the run.
struct ShapeData {
  ShapeSpec spec;
  std::vector<std::vector<double>> pool;
  std::vector<double> work;
  std::size_t work_input = 0;  ///< pool index behind work's current output
  std::uint64_t sample_at = 0;
  std::size_t sample_input = 0;
  std::vector<double> sample;
};

std::vector<ShapeData> make_shapes(const std::vector<ShapeSpec>& specs,
                                   std::uint64_t seed, std::uint64_t stream);

struct Rounds {
  /// false: a round runs each shape's requests back to back, the shapes in
  /// a seeded order; true: every request of the round in a seeded order.
  bool interleave = false;
  std::uint64_t divide = 1;  ///< run per_round / divide (>= 1) per shape
  std::size_t rounds_per_slice = 1;
  std::size_t min_rounds = 1;
  bool keep_samples = true;
};

/// Serves one request of shape `s` in place in `x`.
using ServeFn = std::function<void(std::size_t s, double* x)>;

/// Whole rounds until `seconds` of wall time have passed and at least
/// min_rounds ran.  Each request refills its shape's buffer from a seeded
/// input (not timed), times the serve call (a span of `span_ids[s]` when
/// traced) and records it; a slice's time is the sum of its calls.  A call
/// that throws counts as failed.
void run_rounds(std::vector<ShapeData>& data, const Rounds& rounds,
                const ServeFn& serve, std::uint64_t seed, double seconds,
                Phase& phase, Tracer* tracer,
                const std::vector<std::uint32_t>& span_ids);

/// Checks each kept sample, and the last output of each in-place shape
/// (which consumes that input), against `generated`; plans[s] pins the
/// reference plan of shape s.
void check_shapes(Result& result, std::vector<ShapeData>& data,
                  const std::vector<whtlab::core::Plan>& plans);

/// `count` doubles uniform in [-1, 1), determined by (seed, stream).
std::vector<double> seeded_vector(std::size_t count, std::uint64_t seed,
                                  std::uint64_t stream);

/// Stable 64-bit mix of two values (sample selection, stream ids).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// --- workloads --------------------------------------------------------------
//
// Each runs set-up, its timed phase(s) and its correctness check.  With a
// tracer (the traced run) it sets up once, runs the timed phase untraced
// and then traced for half the time each, and fills the per-layer metrics
// its own traffic exercises; otherwise it sets up kSetups times and fills
// the end-to-end metrics.

void run_kernel_large(const Options& options, Result& result, Tracer* tracer);
void run_engine_small(const Options& options, Result& result, Tracer* tracer);
void run_large_mt(const Options& options, Result& result, Tracer* tracer);
void run_whtd_open(const Options& options, Result& result, Tracer* tracer);

// --- layer probes (traced run only) ----------------------------------------
//
// Each fills the per-layer metrics of one layer group from short runs of
// the same calls.  A workload runs only the probes of layers its own
// traffic does not reach, so each metric has one source per workload.

void probe_kernels(Tracer& tracer, Result& result, std::uint64_t seed);
/// engine.first_touch_s comes from the workload's own Engine set-up where
/// it has one; `time_first_touch` makes the probe measure it instead.
void probe_engine(Tracer& tracer, Result& result, std::uint64_t seed,
                  bool time_first_touch);
void probe_parallel(Tracer& tracer, Result& result, std::uint64_t seed);
void probe_ipc(Tracer& tracer, Result& result, std::uint64_t seed);

/// trace.overhead_frac: how much slower the traced phase ran than the
/// untraced one, by mean request latency.
void set_trace_overhead(Result& result, const Phase& untraced,
                        const Phase& traced);

/// proc.cpu_over_wall and proc.ctxsw_per_req from the phase's getrusage
/// samples (taken around the untraced phase).
void set_proc_metrics(Result& result, const Phase& phase);

double median(std::vector<double> values);

}  // namespace perfbench
