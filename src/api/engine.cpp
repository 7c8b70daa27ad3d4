#include "api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/planner.hpp"
#include "api/wisdom.hpp"
#include "model/combined_model.hpp"
#include "simd/cpu_features.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"

namespace whtlab::api {

namespace {

namespace fault = util::fault;

/// The quarantine fallback: the reference backend every other execution
/// path is parity-tested against, always present in the registry.
constexpr const char* kFallbackBackend = "generated";

std::uint64_t engine_monotonic_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void check_size(int n) {
  if (n < 1 || n > kMaxLog2Size) {
    throw std::invalid_argument("wht::Engine: n must be in [1, " +
                                std::to_string(kMaxLog2Size) + "], got " +
                                std::to_string(n));
  }
}

bool all_finite(const double* x, std::size_t count, std::uint64_t size,
                std::ptrdiff_t dist) {
  for (std::size_t v = 0; v < count; ++v) {
    const double* vec = x + static_cast<std::ptrdiff_t>(v) * dist;
    for (std::uint64_t i = 0; i < size; ++i) {
      if (!std::isfinite(vec[i])) return false;
    }
  }
  return true;
}

/// Per-vector model cost for arbitration: the backend's own model when it
/// has one, the CombinedModel at its vector width otherwise — the same pricing rule the Planner applies, minus the
/// search-scoped memo (entries are priced once and cached).
double model_unit_cost(const ExecutorBackend& backend, const core::Plan& plan) {
  if (auto own = backend.cost_model()) return own(plan);
  model::CombinedModel model;
  model.vector_width = backend.vector_width();
  return model(plan);
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.threads < 1) {
    throw std::invalid_argument("wht::Engine: threads must be >= 1");
  }
  if (options_.max_batch < 1) {
    throw std::invalid_argument("wht::Engine: max_batch must be >= 1");
  }
  if (options_.batch_window_us < 0) {
    throw std::invalid_argument("wht::Engine: batch_window_us must be >= 0");
  }
  if (options_.quarantine_strikes < 0) {
    throw std::invalid_argument("wht::Engine: quarantine_strikes must be >= 0");
  }
  if (options_.quarantine_strikes > 0 && options_.probation_ms < 1) {
    throw std::invalid_argument("wht::Engine: probation_ms must be >= 1");
  }
  // WHTLAB_TELEMETRY=0 turns recording off; nothing else reads the series.
  if (util::env_int("WHTLAB_TELEMETRY", options_.telemetry ? 1 : 0) == 0) {
    options_.telemetry = false;
  }
  telemetry_.set_decay_window(options_.telemetry_decay_window);
  candidates_ = options_.backends;
  if (candidates_.empty()) {
    candidates_ = {"generated", "simd", "fused"};
    if (options_.threads > 1) candidates_.push_back("parallel");
  }
  auto& registry = BackendRegistry::global();
  for (const auto& name : candidates_) {
    if (!registry.contains(name)) {
      throw std::invalid_argument("wht::Engine: unknown candidate backend '" +
                                  name + "'");
    }
  }
  if (options_.quarantine_strikes > 0 &&
      !registry.contains(kFallbackBackend)) {
    throw std::invalid_argument(
        "wht::Engine: quarantine needs the reference backend '" +
        std::string(kFallbackBackend) + "' in the registry");
  }
  fallback_ = static_cast<std::size_t>(
      std::find(candidates_.begin(), candidates_.end(), kFallbackBackend) -
      candidates_.begin());
  column_count_ = candidates_.size() + (fallback_ == candidates_.size());
  columns_ = std::make_unique<Column[]>(column_count_);
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    columns_[c].name = candidates_[c];
  }
  columns_[fallback_].name = kFallbackBackend;
  cells_ = std::make_unique<Cell[]>((kMaxLog2Size + 1) * column_count_);
}

Engine::~Engine() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // A dispatcher that never started cannot have left queued work behind
  // (submit() starts it before enqueueing); promises die with the deque.
}

Engine::Cell& Engine::built(int n, std::size_t column) {
  Cell& cell = cells_[static_cast<std::size_t>(n) * column_count_ + column];
  if (!cell.ready.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(cell.build_mutex);
    if (!cell.ready.load(std::memory_order_relaxed)) {
      build(cell, n, columns_[column].name);  // a throw caches nothing
      cell.ready.store(true, std::memory_order_release);
    }
  }
  return cell;
}

void Engine::build(Cell& cell, int n, const std::string& backend) {
  Planner planner;
  planner.strategy(options_.strategy)
      .backend(backend)
      .threads(options_.threads)
      .max_leaf(options_.max_leaf);
  planner.wisdom_file(options_.wisdom_file);  // "" = no wisdom cache
  auto transform = std::make_shared<Transform>(planner.plan(n));
  if (options_.measure_costs) {
    // Anchor to cycles so "fused" model units and CombinedModel units are
    // comparable across backends: one short measurement per (n, backend),
    // paid at first touch, cached for the Engine's lifetime.
    cell.unit_cost =
        measure_with_backend(transform->backend(), transform->plan(),
                             options_.measure)
            .cycles();
  } else {
    cell.unit_cost = model_unit_cost(transform->backend(), transform->plan());
  }
  if (options_.telemetry) {
    cell.telem_single = &telemetry_.series(n, backend, /*batch=*/false);
    cell.telem_batch = &telemetry_.series(n, backend, /*batch=*/true);
  }
  cell.transform = std::move(transform);
}

std::shared_ptr<const Transform> Engine::transform(int n,
                                                   const std::string& backend) {
  check_size(n);
  for (std::size_t c = 0; c < column_count_; ++c) {
    if (columns_[c].name == backend) return built(n, c).transform;
  }
  throw std::invalid_argument("wht::Engine: '" + backend +
                              "' is neither a candidate nor the fallback");
}

std::size_t Engine::prewarm() {
  if (options_.wisdom_file.empty()) return 0;
  Wisdom wisdom;
  try {
    wisdom = Wisdom::load(options_.wisdom_file);
  } catch (const std::exception&) {
    return 0;  // unreadable/corrupt wisdom: prewarm is best-effort
  }
  const std::string cpu = simd::to_string(simd::active_level());
  // Dedup to (n, backend): wisdom may record several strategies for one
  // shape, but the Engine caches exactly one Transform per pair.
  std::set<std::pair<int, std::string>> shapes;
  for (const Wisdom::Key& key : wisdom.keys()) {
    if (key.cpu != cpu) continue;  // tuned for another host/SIMD level
    if (key.n < 1 || key.n > kMaxLog2Size) continue;
    if (std::find(candidates_.begin(), candidates_.end(), key.backend) ==
        candidates_.end()) {
      continue;
    }
    shapes.emplace(key.n, key.backend);
  }
  std::size_t built = 0;
  for (const auto& [n, backend] : shapes) {
    try {
      if (transform(n, backend) != nullptr) ++built;
    } catch (const std::exception&) {
      // A shape that cannot build now will retry on first touch; prewarm
      // must not keep the daemon from serving everything else.
    }
  }
  return built;
}

void Engine::flush_wisdom() {
  if (options_.wisdom_file.empty()) return;
  WisdomRegistry::global().flush(options_.wisdom_file);
}

Engine::Route Engine::route(int n, std::size_t count,
                            std::vector<Decision::Candidate>* ranking) {
  check_size(n);
  if (count < 1) {
    throw std::invalid_argument("wht::Engine: request count must be >= 1");
  }
  Route best;
  std::exception_ptr first_error;
  // Two passes at most: first honouring quarantine, then — only if the
  // breaker has sidelined every single candidate — ignoring it, because a
  // degraded answer beats refusing to serve.
  for (const bool honour_quarantine : {true, false}) {
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      if (honour_quarantine && quarantine_blocked(columns_[c])) continue;
      try {
        Cell& cell = built(n, c);
        // Per-vector price for this shape: the first-touch anchor, scaled
        // by batch_factor for the batch path.
        double per_vector = cell.unit_cost;
        if (count > 1) {
          per_vector *= cell.transform->backend().batch_factor(
              cell.transform->plan(), count, options_.threads);
        }
        const double cost = per_vector * static_cast<double>(count);
        if (ranking != nullptr) ranking->push_back({candidates_[c], cost});
        if (best.cell == nullptr || cost < best.cost) best = {c, &cell, cost};
      } catch (...) {
        // A broken candidate must not take the whole size down while others
        // can serve; it is absent from this ranking and retried next touch.
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (best.cell != nullptr) break;
  }
  if (best.cell == nullptr) {
    if (first_error) std::rethrow_exception(first_error);
    throw std::logic_error("wht::Engine: no candidate backends");
  }
  return best;
}

Engine::Decision Engine::arbitrate(int n, std::size_t count) {
  Decision decision;
  const Route best = route(n, count, &decision.candidates);
  decision.backend = candidates_[best.column];
  decision.cost = best.cost;
  std::sort(decision.candidates.begin(), decision.candidates.end(),
            [](const Decision::Candidate& a, const Decision::Candidate& b) {
              return a.cost < b.cost;
            });
  return decision;
}

bool Engine::quarantine_blocked(const Column& column) {
  const std::uint64_t until = column.until_ns.load(std::memory_order_acquire);
  // Probation elapsed: the backend stays marked quarantined but the arbiter
  // lets this request through as a live-traffic probe.  Success clears the
  // breaker; failure re-trips it immediately (the trip left strikes at the
  // threshold, so one probe failure is enough — no fresh streak required).
  return until != 0 && engine_monotonic_ns() < until;
}

void Engine::trip(Column& column) {
  column.until_ns.store(
      engine_monotonic_ns() + options_.probation_ms * 1000000ULL,
      std::memory_order_release);
  column.trips += 1;
}

void Engine::on_backend_failure(Column& column) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  const int strikes = column.strikes.load(std::memory_order_relaxed) + 1;
  column.strikes.store(strikes, std::memory_order_relaxed);
  if (strikes >= options_.quarantine_strikes) trip(column);
}

void Engine::on_backend_success(Column& column) {
  // The healthy steady state: nothing to clear, no lock.
  if (column.strikes.load(std::memory_order_relaxed) == 0 &&
      column.until_ns.load(std::memory_order_relaxed) == 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(health_mutex_);
  column.strikes.store(0, std::memory_order_relaxed);
  column.until_ns.store(0, std::memory_order_release);
}

std::size_t Engine::run_guarded(const Route& route, int n, double* x,
                                std::size_t count, std::ptrdiff_t dist,
                                ExecContext& ctx) {
  const std::uint64_t size = std::uint64_t{1} << n;
  Column& column = columns_[route.column];
  const bool resilient =
      options_.quarantine_strikes > 0 && route.column != fallback_;
  // Execution is in place, so a failed or corrupt run has already destroyed
  // the caller's input by the time the failure is visible.  The snapshot
  // is a local buffer on purpose: the dispatcher's staging arena may hold
  // this very batch (serve_group), and ScratchArena::acquire may relocate
  // on growth.
  std::vector<double> snapshot;
  if (resilient) {
    snapshot.resize(size * count);
    for (std::size_t v = 0; v < count; ++v) {
      std::memcpy(snapshot.data() + v * size,
                  x + static_cast<std::ptrdiff_t>(v) * dist,
                  size * sizeof(double));
    }
  }
  const auto run = [&](const Transform& t) {
    if (count == 1) {
      t.execute(x, 1, ctx);
    } else {
      t.execute_many(x, count, dist, ctx);
    }
  };
  telemetry::Accumulator* telem =
      count > 1 ? route.cell->telem_batch : route.cell->telem_single;
  std::uint64_t elapsed = 0;
  bool failed = false;
  try {
    if (fault::enabled() && fault::point("engine.exec." + column.name)) {
      throw std::runtime_error("engine: backend '" + column.name +
                               "' failed [fault injected]");
    }
    const std::uint64_t begin = telem ? telemetry::now_ticks() : 0;
    run(*route.cell->transform);
    if (telem) elapsed = telemetry::now_ticks() - begin;
    if (fault::enabled() && fault::point("engine.corrupt." + column.name)) {
      x[0] = std::numeric_limits<double>::quiet_NaN();
    }
    if (resilient && options_.verify_finite &&
        !all_finite(x, count, size, dist) &&
        all_finite(snapshot.data(), count, size,
                   static_cast<std::ptrdiff_t>(size))) {
      // Finite input, non-finite output: the backend corrupted the result.
      // (Non-finite *input* legitimately yields non-finite output and is
      // the caller's business, hence the snapshot check.)
      failed = true;
    }
  } catch (...) {
    if (!resilient) throw;
    failed = true;
  }
  if (!failed) {
    // A post-probation probe that succeeds clears the quarantine.
    if (options_.quarantine_strikes > 0 && route.column != fallback_) {
      on_backend_success(column);
    }
    if (telem != nullptr) telem->record(elapsed / count);
    return route.column;
  }
  on_backend_failure(column);
  for (std::size_t v = 0; v < count; ++v) {
    std::memcpy(x + static_cast<std::ptrdiff_t>(v) * dist,
                snapshot.data() + v * size, size * sizeof(double));
  }
  // The reference backend's own failures propagate: there is nothing left
  // to fall back to, and masking them would hide real breakage.
  run(*built(n, fallback_).transform);
  counters_.failures.fetch_add(1, std::memory_order_relaxed);
  counters_.fallbacks.fetch_add(count, std::memory_order_relaxed);
  return fallback_;
}

void Engine::record(std::size_t column, std::uint64_t vectors, bool batch,
                    bool from_submit) {
  constexpr auto relaxed = std::memory_order_relaxed;
  if (batch) {
    counters_.batches.fetch_add(1, relaxed);
    if (from_submit && vectors >= 2) {
      counters_.coalesced.fetch_add(vectors, relaxed);
    }
  } else if (!from_submit) {
    counters_.singles.fetch_add(1, relaxed);
  }
  columns_[column].vectors.fetch_add(vectors, relaxed);
}

void Engine::serve(int n, double* x, std::size_t count, std::ptrdiff_t dist,
                   ExecContext& ctx) {
  if (count == 0) return;
  const Route best = route(n, count, nullptr);
  record(run_guarded(best, n, x, count, dist, ctx), count, count > 1, false);
}

void Engine::execute(int n, double* x) {
  ExecContext ctx;
  execute(n, x, ctx);
}

void Engine::execute_many(int n, double* x, std::size_t count) {
  execute_many(n, x, count, static_cast<std::ptrdiff_t>(std::uint64_t{1} << n));
}

void Engine::execute_many(int n, double* x, std::size_t count,
                          std::ptrdiff_t dist) {
  ExecContext ctx;
  execute_many(n, x, count, dist, ctx);
}

void Engine::execute(int n, double* x, ExecContext& ctx) {
  serve(n, x, 1, static_cast<std::ptrdiff_t>(std::uint64_t{1} << n), ctx);
}

void Engine::execute_many(int n, double* x, std::size_t count,
                          std::ptrdiff_t dist, ExecContext& ctx) {
  serve(n, x, count, dist, ctx);
}

void Engine::ensure_dispatcher() {
  // Called with queue_mutex_ held.
  if (dispatcher_started_) return;
  dispatcher_started_ = true;
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

std::future<void> Engine::submit(int n, double* x) {
  if (n < 1) throw std::invalid_argument("wht::Engine: n must be >= 1");
  Pending pending;
  pending.n = n;
  pending.x = x;
  std::future<void> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stop_) {
      throw std::logic_error("wht::Engine: submit after shutdown");
    }
    ensure_dispatcher();
    queue_.push_back(std::move(pending));
  }
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.notify_all();
  return future;
}

void Engine::dispatcher_main() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // drained: exit only with an empty queue
      continue;
    }
    // Coalescing window: serve the oldest request's size, merging every
    // same-size request that is queued now or arrives before the window
    // closes (or the batch fills), into one dispatch.
    const int n = queue_.front().n;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(options_.batch_window_us);
    auto same_n = [this, n] {
      std::size_t matching = 0;
      for (const Pending& p : queue_) matching += (p.n == n);
      return matching;
    };
    while (!stop_ && same_n() < options_.max_batch &&
           queue_cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
    }
    std::vector<Pending> group;
    group.reserve(std::min<std::size_t>(options_.max_batch, queue_.size()));
    for (auto it = queue_.begin();
         it != queue_.end() && group.size() < options_.max_batch;) {
      if (it->n == n) {
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    serve_group(std::move(group));
    lock.lock();
  }
}

namespace {

/// Ceiling on a coalesced batch's contiguous staging (16 MiB of doubles).
/// Coalescing pays two memcpys per vector to unlock the batch paths, which
/// wins exactly where per-transform overhead dominates — tiny transforms.
/// Above this the copies (and the grow-only arena they would pin for the
/// Engine's lifetime) outweigh any batch gain, so the group serves
/// per-vector in place instead.
constexpr std::uint64_t kMaxStagedDoubles = std::uint64_t{1} << 21;

}  // namespace

void Engine::serve_group(std::vector<Pending> group) {
  const int n = group.front().n;
  const std::size_t count = group.size();
  const std::uint64_t size = std::uint64_t{1} << n;
  const bool staged = count > 1 && size * count <= kMaxStagedDoubles;
  ExecContext ctx;
  try {
    // Price the shape that will actually run: a group too large to stage
    // serves as independent single-vector requests.
    const Route best = route(n, staged ? count : 1, nullptr);
    if (!staged) {
      for (Pending& p : group) {
        // run_guarded may reroute ONE vector to the fallback without
        // disturbing the winner the rest still use.
        record(run_guarded(best, n, p.x, 1, static_cast<std::ptrdiff_t>(size),
                           ctx),
               1, false, true);
      }
    } else {
      // Stage the scattered request buffers contiguously, run ONE batched
      // call on the arbitrated backend, scatter the results back.  The
      // staging arena belongs to the dispatcher thread and is reused across
      // batches, so steady-state serving allocates nothing.
      double* stage = dispatcher_stage_.acquire(size * count);
      for (std::size_t v = 0; v < count; ++v) {
        std::memcpy(stage + v * size, group[v].x, size * sizeof(double));
      }
      const std::size_t served =
          run_guarded(best, n, stage, count,
                      static_cast<std::ptrdiff_t>(size), ctx);
      for (std::size_t v = 0; v < count; ++v) {
        std::memcpy(group[v].x, stage + v * size, size * sizeof(double));
      }
      record(served, count, staged, true);
    }
    for (Pending& p : group) p.promise.set_value();
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (Pending& p : group) p.promise.set_exception(error);
  }
}

telemetry::Snapshot Engine::telemetry_snapshot() const {
  return telemetry_.snapshot();
}

Engine::Stats Engine::stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  Stats snapshot;
  snapshot.singles = counters_.singles.load(relaxed);
  snapshot.submitted = counters_.submitted.load(relaxed);
  snapshot.batches = counters_.batches.load(relaxed);
  snapshot.coalesced = counters_.coalesced.load(relaxed);
  snapshot.failures = counters_.failures.load(relaxed);
  snapshot.fallbacks = counters_.fallbacks.load(relaxed);
  const std::lock_guard<std::mutex> lock(health_mutex_);
  for (std::size_t c = 0; c < column_count_; ++c) {
    const Column& column = columns_[c];
    if (const std::uint64_t v = column.vectors.load(relaxed); v > 0) {
      snapshot.per_backend[column.name] += v;
      snapshot.vectors += v;
    }
    if (column.trips > 0) snapshot.quarantine_trips[column.name] = column.trips;
    if (column.until_ns.load(relaxed) != 0) {
      snapshot.quarantined.push_back(column.name);
    }
  }
  std::sort(snapshot.quarantined.begin(), snapshot.quarantined.end());
  return snapshot;
}

std::string to_string(const Engine::Stats& stats) {
  std::ostringstream out;
  out << "vectors=" << stats.vectors << " singles=" << stats.singles
      << " submitted=" << stats.submitted << " batches=" << stats.batches
      << " coalesced=" << stats.coalesced;
  if (stats.failures > 0 || stats.fallbacks > 0) {
    out << " failures=" << stats.failures << " fallbacks=" << stats.fallbacks;
  }
  for (const auto& [backend, vectors] : stats.per_backend) {
    out << ' ' << backend << '=' << vectors;
  }
  for (const auto& [backend, trips] : stats.quarantine_trips) {
    out << " trips." << backend << '=' << trips;
  }
  if (!stats.quarantined.empty()) {
    out << " quarantined=";
    for (std::size_t i = 0; i < stats.quarantined.size(); ++i) {
      out << (i == 0 ? "" : ",") << stats.quarantined[i];
    }
  }
  return out.str();
}

}  // namespace whtlab::api
