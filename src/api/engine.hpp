// wht::Engine — the process-wide concurrent serving façade.
//
// A Transform is immutable and re-entrant (transform.hpp), so the natural
// serving architecture is: plan once per (size, backend), share the plans
// among every serving thread, and decide *which* backend answers each
// request from the request's shape.  Engine packages exactly that:
//
//   wht::Engine engine;
//   engine.execute(16, x);             // single vector, arbitrated backend
//   engine.execute_many(10, xs, 64);   // batch, arbitrated batch path
//   auto done = engine.submit(10, y);  // async; concurrent same-size
//   done.get();                        //   submits coalesce into one batch
//
//   * Shared plan cache — one immutable Transform per (n, backend), planned
//     on first touch through the wht::Planner (wisdom-backed when
//     EngineOptions::wisdom_file is set: a tuned plan is paid for once per
//     machine, then every Engine in every process reuses it).  The cache is
//     a table fixed at construction — sizes 1..kMaxLog2Size by the
//     candidates plus the "generated" fallback — so a warmed synchronous
//     request is routed by index with no lock and no allocation.
//   * Serve-time backend arbitration — each registered candidate backend is
//     priced for the request shape (single vector vs batch, size, thread
//     budget): a measured cycle anchor per (n, backend) by default, or
//     its cost_model() / the CombinedModel at its vector width with
//     measure_costs off, scaled by ExecutorBackend::batch_factor for the
//     batch shape.  The measure-or-model autotuning idea, applied across
//     backends at serve time: "fused" wins big single vectors (memory
//     passes), "simd" wins tiny-n batches (interleave), per the prices —
//     not per a hardcode.
//   * Coalescing batcher — submit() queues the request and returns a
//     future; a dispatcher thread merges every same-size request that
//     arrives within a short window (or until max_batch) into ONE
//     run_many call on the arbitrated batch backend.  Under concurrent
//     load, independent callers transparently form batches big enough for
//     the interleaved/fan-out paths to pay off.
//
// All public methods are thread-safe; one Engine is meant to be shared by
// an entire process (construct it once, serve from everywhere).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/exec_context.hpp"
#include "api/planner.hpp"
#include "api/transform.hpp"
#include "perf/measure.hpp"
#include "telemetry/registry.hpp"

namespace whtlab::api {

struct EngineOptions {
  /// Candidate backends the arbiter chooses among.  Every name must exist in
  /// the BackendRegistry (checked at Engine construction).  Empty = the
  /// serving built-ins: "generated", "simd", "fused", plus "parallel" when
  /// threads > 1.
  std::vector<std::string> backends;

  /// Planning strategy for first-touch plans (kEstimate: model-driven,
  /// instant — the serving default; pair with wisdom_file to amortize
  /// anything costlier).
  Strategy strategy = Strategy::kEstimate;

  /// Per-request worker-thread budget handed to the backends (batch fan-out)
  /// and to the arbiter's batch pricing.  Serving throughput scales with
  /// *caller* threads on the shared transforms regardless; keep this 1
  /// unless individual requests are latency-critical.
  int threads = 1;

  /// Largest unrolled leaf for planning (Planner::max_leaf).
  int max_leaf = core::kMaxUnrolled;

  /// Wisdom file consulted/updated by first-touch planning ("" = none).
  std::string wisdom_file;

  /// Anchor each (n, backend) model cost to measured cycles (one short
  /// measurement at first touch) so arbitration compares cycles with
  /// cycles.  Off = raw model units (only meaningful when every candidate's
  /// model shares units — e.g. custom backends in tests).
  bool measure_costs = true;

  /// Protocol for the anchor measurements (kept deliberately cheap).
  perf::MeasureOptions measure{/*warmup=*/1, /*repetitions=*/3};

  /// Coalescer: a forming batch dispatches at this many requests ...
  std::size_t max_batch = 32;

  /// ... or this long after its first request arrived, whichever is first.
  long batch_window_us = 200;

  /// Backend circuit breaker: after this many consecutive serving-time
  /// failures (an exception out of the backend, or a non-finite output
  /// caught by the verify hook) a backend is quarantined — the arbiter
  /// stops routing to it and the failed request is transparently re-run on
  /// the `generated` reference backend from a pristine input snapshot.
  /// 0 disables the breaker entirely (the library default: no snapshot
  /// copies, no behavior change); the whtd daemon arms it.
  int quarantine_strikes = 0;

  /// How long a quarantined backend sits out before the arbiter re-probes
  /// it with live traffic.  A successful probe clears the quarantine; a
  /// failed one re-trips it for another probation period.
  std::uint64_t probation_ms = 2000;

  /// Verify hook: scan every served output for non-finite values and treat
  /// a corrupt result from a finite input as a backend failure (feeds the
  /// circuit breaker).  Only meaningful with quarantine_strikes > 0 — the
  /// snapshot that makes the fallback re-run possible is what makes
  /// detection actionable.
  bool verify_finite = false;

  /// Online telemetry: every served request records its observed
  /// cycles-per-vector into a per-(n, backend, single/batch) accumulator
  /// table (telemetry/registry.hpp), exported via telemetry_snapshot() and
  /// whtd's stats page.  Observation only: arbitration prices from the
  /// static first-touch anchors, and only serving failures (never
  /// slowness) trip the breaker.  Recording is a handful of relaxed atomic
  /// ops per request; the WHTLAB_TELEMETRY=0 environment knob (applied at
  /// construction) turns it off.
  bool telemetry = true;

  /// Records per stripe between histogram halvings — the EWMA horizon of
  /// the live series (accumulator.hpp).  0 = never decay (lifetime stats).
  std::uint64_t telemetry_decay_window = 4096;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  ///< drains the submit queue, joins the dispatcher

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// What the arbiter decided for one request shape (also the introspection
  /// hook: candidates lists every backend's priced cost for the shape).
  struct Decision {
    std::string backend;  ///< the winner
    double cost = 0.0;    ///< its predicted cost for the whole request
    struct Candidate {
      std::string backend;
      double cost = 0.0;
    };
    std::vector<Candidate> candidates;  ///< every priced candidate, sorted by cost
  };

  /// Prices every candidate backend for a request of `count` vectors of
  /// 2^n doubles and returns the ranking.  First touch of an (n, backend)
  /// pair plans (and, by default, anchor-measures) it; later calls index the
  /// Engine's fixed (n, backend) cell table and do arithmetic on the cached
  /// per-unit costs — no lock, no re-planning, no re-measurement.  The serve
  /// paths price the same way but keep only the winner; this call alone
  /// builds the sorted ranking.  A candidate whose first-touch build throws
  /// is skipped for this decision and retried on the next; arbitrate itself
  /// throws only when every candidate fails (std::invalid_argument for n
  /// outside [1, kMaxLog2Size]).
  Decision arbitrate(int n, std::size_t count = 1);

  /// The shared immutable Transform for (n, backend); planned on first
  /// touch, cached for the Engine's lifetime.  `backend` must be one of
  /// candidates() or the quarantine fallback "generated", and n must lie in
  /// [1, kMaxLog2Size]; anything else throws std::invalid_argument (the
  /// Engine only holds cells for the backends it can route to).  The
  /// shared_ptr keeps the Transform alive independently of the Engine —
  /// hold it to skip even the cell lookup on a hot serve path.
  std::shared_ptr<const Transform> transform(int n, const std::string& backend);

  /// Rebuilds the shared Transform cache for every (n, backend) shape the
  /// configured wisdom file records for this host's SIMD level and this
  /// Engine's candidate backends — so a freshly (re)started daemon pays its
  /// first-touch planning stalls *before* taking traffic instead of on the
  /// first unlucky request (`whtd --prewarm`).  Returns the number of
  /// Transforms built; shapes whose build throws are skipped (they will
  /// retry on first touch, exactly as without prewarming).  No wisdom file
  /// configured, or none readable, prewarms nothing.
  std::size_t prewarm();

  /// Durability barrier for the configured wisdom file: re-merges the
  /// process's cached wisdom over the on-disk state and saves atomically.
  /// Inserts already persist eagerly, so this is a best-effort lifecycle
  /// hook — a draining daemon calls it before exiting so the successor's
  /// prewarm provably sees every winner this Engine recorded.  No wisdom
  /// file configured = no-op; never throws.
  void flush_wisdom();

  /// Serves one in-place transform of x[0 .. 2^n) on the arbitrated
  /// backend, synchronously on the calling thread.
  void execute(int n, double* x);

  /// Serves `count` vectors (vector v at x + v*dist; dist defaults to 2^n)
  /// in one arbitrated run_many call.
  void execute_many(int n, double* x, std::size_t count);
  void execute_many(int n, double* x, std::size_t count, std::ptrdiff_t dist);

  /// External-submitter hooks: the caller owns the per-call context instead
  /// of the Transform's internal pool — the shape for serving layers that
  /// drive the Engine from their own threads with their own arenas (the
  /// whtd daemon executes straight on shared-memory staging this way).
  void execute(int n, double* x, ExecContext& ctx);
  void execute_many(int n, double* x, std::size_t count, std::ptrdiff_t dist,
                    ExecContext& ctx);

  /// Queues one in-place transform of x[0 .. 2^n) and returns immediately;
  /// the future resolves when it ran.  Concurrent submits of the same n
  /// coalesce into one arbitrated run_many (the dispatcher stages them
  /// contiguously, runs the batch, scatters results back).  Planning or
  /// execution errors surface through the future.
  std::future<void> submit(int n, double* x);

  /// Serving counters (monotonic since construction).
  struct Stats {
    std::uint64_t vectors = 0;       ///< transforms served, all paths
    std::uint64_t singles = 0;       ///< synchronous execute() requests
    std::uint64_t submitted = 0;     ///< submit() requests
    std::uint64_t batches = 0;       ///< run_many dispatches (any path)
    std::uint64_t coalesced = 0;     ///< submits served in a merged batch (>= 2)
    std::uint64_t failures = 0;      ///< serving-time backend failures absorbed
    std::uint64_t fallbacks = 0;     ///< requests re-run on the reference backend
    std::map<std::string, std::uint64_t> per_backend;  ///< vectors per winner
    /// Circuit-breaker state: quarantine trips per backend since
    /// construction, and the backends sitting in quarantine right now.
    std::map<std::string, std::uint64_t> quarantine_trips;
    std::vector<std::string> quarantined;
  };
  Stats stats() const;

  /// Point-in-time copy of the whole telemetry table — every
  /// (n, backend, single/batch) series observed since construction, sorted.
  /// Empty when options().telemetry is off.  telemetry::to_text renders it
  /// in the Prometheus exposition format.
  telemetry::Snapshot telemetry_snapshot() const;

  const EngineOptions& options() const { return options_; }
  /// The arbiter's candidate pool (options().backends after defaulting).
  const std::vector<std::string>& candidates() const { return candidates_; }

 private:
  /// One (n, backend) cell of the fixed table.  Built on first touch under
  /// its own mutex; once `ready` is true the other fields are immutable and
  /// read without a lock (release/acquire pairing).  Build failures cache
  /// nothing — the next touch retries, so one transient error (ENOSPC during
  /// a wisdom write, an OOM during an anchor measurement) never poisons a
  /// size for the Engine's lifetime.
  struct Cell {
    std::atomic<bool> ready{false};
    std::mutex build_mutex;
    std::shared_ptr<const Transform> transform;
    double unit_cost = 0.0;  ///< per-vector serve cost (cycles or model units)
    /// Live telemetry series for this (n, backend), resolved once at build
    /// so the recording path never touches the registry lock (series
    /// addresses are stable for the Engine's lifetime).  Null when
    /// telemetry is off.
    telemetry::Accumulator* telem_single = nullptr;
    telemetry::Accumulator* telem_batch = nullptr;
  };

  /// One backend's column: its circuit breaker and its vector count (the
  /// one source of Stats::vectors, which stats() sums over the columns).
  /// `until_ns` is 0 while the backend is healthy and its re-probe time
  /// while quarantined, so routing reads one atomic and never locks.
  /// health_mutex_ serialises the writers (a strike, a trip, a clear);
  /// `strikes` is atomic only so a success can see "nothing to clear"
  /// without taking it.
  struct alignas(64) Column {
    std::string name;
    std::atomic<std::uint64_t> until_ns{0};
    std::atomic<int> strikes{0};  ///< consecutive serving-time failures
    std::uint64_t trips = 0;      ///< times tripped; guarded by health_mutex_
    std::atomic<std::uint64_t> vectors{0};  ///< Stats::per_backend, ::vectors
  };

  /// Stats without the column sums (vectors, per_backend): independent
  /// monotonic tallies, so relaxed increments suffice.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> singles{0};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> fallbacks{0};
  };

  struct Pending {
    int n = 0;
    double* x = nullptr;
    std::promise<void> promise;
  };

  /// The built cell for (n, column): builds under the cell's own mutex on
  /// first touch (throwing what planning threw) and is a single atomic load
  /// afterwards.
  Cell& built(int n, std::size_t column);
  void build(Cell& cell, int n, const std::string& backend);

  /// Where one request runs: the cheapest routable candidate for its shape.
  struct Route {
    std::size_t column = 0;
    Cell* cell = nullptr;
    double cost = 0.0;  ///< predicted cost of the whole request
  };
  /// Prices every candidate (skipping quarantined ones unless all are) and
  /// returns the cheapest.  `ranking`, when given, receives every priced
  /// candidate in column order — arbitrate() sorts it; the serve paths pass
  /// null and allocate nothing.
  Route route(int n, std::size_t count,
              std::vector<Decision::Candidate>* ranking);

  /// True while the backend is quarantined and its probation has not
  /// elapsed (after probation the arbiter lets live traffic re-probe it).
  static bool quarantine_blocked(const Column& column);
  void on_backend_failure(Column& column);
  void on_backend_success(Column& column);
  /// Engages the breaker for one probation period; health_mutex_ held.
  void trip(Column& column);
  /// Runs the routed transform; with the breaker armed, absorbs a backend
  /// failure (exception, injected fault, or non-finite output from a finite
  /// input when verify_finite) by striking the backend, restoring the input
  /// from a snapshot, and re-running on the reference backend.  Returns the
  /// column that actually served.
  std::size_t run_guarded(const Route& route, int n, double* x,
                          std::size_t count, std::ptrdiff_t dist,
                          ExecContext* ctx);

  /// The synchronous serve path behind every execute/execute_many overload.
  void serve(int n, double* x, std::size_t count, std::ptrdiff_t dist,
             ExecContext* ctx);

  void record(std::size_t column, std::uint64_t vectors, bool batch,
              bool from_submit);

  void dispatcher_main();
  void serve_group(std::vector<Pending> group);
  void ensure_dispatcher();

  EngineOptions options_;
  std::vector<std::string> candidates_;
  telemetry::Registry telemetry_;

  /// The table, fixed at construction: columns are the candidates, then the
  /// quarantine fallback "generated" unless it is already a candidate (it
  /// serves fallbacks but is never arbitrated); rows are n = 0 ..
  /// kMaxLog2Size (row 0 unused).  Cells never move, so their addresses
  /// are the routing state.
  std::size_t column_count_ = 0;
  std::size_t fallback_ = 0;  ///< column of "generated"
  std::unique_ptr<Column[]> columns_;
  std::unique_ptr<Cell[]> cells_;

  Counters counters_;
  mutable std::mutex health_mutex_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool dispatcher_started_ = false;
  std::thread dispatcher_;
  ExecContext dispatcher_ctx_;  ///< staging + scratch for coalesced batches
};

/// One-line human-readable rendering of a stats snapshot — the export used
/// by `whtd --stats`, the serve example, and log lines.
std::string to_string(const Engine::Stats& stats);

}  // namespace whtlab::api
