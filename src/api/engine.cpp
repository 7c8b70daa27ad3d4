#include "api/engine.hpp"

#include <algorithm>
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
        const double cost = cell.unit_cost * static_cast<double>(count);
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
                                std::size_t count, std::ptrdiff_t dist) {
  const std::uint64_t size = std::uint64_t{1} << n;
  Column& column = columns_[route.column];
  const bool resilient =
      options_.quarantine_strikes > 0 && route.column != fallback_;
  // Execution is in place, so a failed or corrupt run has already destroyed
  // the caller's input by the time the failure is visible.
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
      t.execute(x);
    } else {
      t.execute_many(x, count, dist);
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

void Engine::serve(int n, double* x, std::size_t count, std::ptrdiff_t dist) {
  check_size(n);
  if (count == 0) return;
  constexpr auto relaxed = std::memory_order_relaxed;
  const std::size_t served =
      run_guarded(route(n, count, nullptr), n, x, count, dist);
  (count > 1 ? counters_.batches : counters_.singles).fetch_add(1, relaxed);
  columns_[served].vectors.fetch_add(count, relaxed);
}

void Engine::execute(int n, double* x) {
  check_size(n);  // before the shift, which a bad n would overflow
  serve(n, x, 1, std::ptrdiff_t{1} << n);
}

void Engine::execute_many(int n, double* x, std::size_t count) {
  check_size(n);
  serve(n, x, count, std::ptrdiff_t{1} << n);
}

void Engine::execute_many(int n, double* x, std::size_t count,
                          std::ptrdiff_t dist) {
  serve(n, x, count, dist);
}

std::future<void> Engine::submit(int n, double* x) {
  if (n < 1) throw std::invalid_argument("wht::Engine: n must be >= 1");
  std::promise<void> done;
  try {
    execute(n, x);
    done.set_value();
  } catch (...) {
    done.set_exception(std::current_exception());
  }
  return done.get_future();
}

telemetry::Snapshot Engine::telemetry_snapshot() const {
  return telemetry_.snapshot();
}

Engine::Stats Engine::stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  Stats snapshot;
  snapshot.singles = counters_.singles.load(relaxed);
  snapshot.batches = counters_.batches.load(relaxed);
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
      << " batches=" << stats.batches;
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
