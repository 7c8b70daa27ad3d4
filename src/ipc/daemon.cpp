#include "ipc/daemon.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ipc/credit_bucket.hpp"
#include "ipc/futex.hpp"
#include "ipc/validate.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"

namespace whtlab::ipc {

namespace {

namespace fault = util::fault;

/// pid liveness via the null signal.  EPERM still means "exists".
bool pid_alive(std::uint32_t pid) {
  if (pid == 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

/// Hard cap on request n: beyond this even one vector cannot be staged in
/// any plausible arena, and plan trees this deep are a config error.
constexpr std::uint32_t kMaxRequestN = 30;

/// Validated env knob: reject (never clamp) zero/negative/overflow values —
/// a daemon started with a typo must fail loudly, not serve misconfigured.
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max) {
  std::int64_t value = 0;
  try {
    value = util::env_int(name, static_cast<std::int64_t>(fallback));
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("ipc: ") + name +
                                " is not an integer");
  }
  if (value < 0 || static_cast<std::uint64_t>(value) < min ||
      static_cast<std::uint64_t>(value) > max) {
    throw std::invalid_argument(
        std::string("ipc: ") + name + "=" + std::to_string(value) +
        " out of range [" + std::to_string(min) + ", " + std::to_string(max) +
        "]");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

struct Daemon::SlotLocal {
  CreditBucket credits;
  StrikeCounter strikes;
  std::uint64_t seen_generation = 0;
  /// Highest seq counter consumed this generation (serial-number order).
  std::uint32_t last_counter = 0;
  int claim_strikes = 0;  ///< sweeps spent claimed/ownerless without a live pid

  /// A new tenant (or an eviction) starts every budget and ledger fresh.
  void new_tenant(std::uint64_t generation) {
    seen_generation = generation;
    credits.reset();
    strikes.reset();
    last_counter = 0;
    claim_strikes = 0;
  }
};

DaemonOptions DaemonOptions::from_env() {
  DaemonOptions options;
  if (const auto name = util::env_string("WHTLAB_IPC_NAME")) {
    options.endpoint = *name;  // shm_name_for rejects empty / slashed names
  }
  options.slots = static_cast<std::uint32_t>(
      env_u64("WHTLAB_IPC_SLOTS", options.slots, 1, 1024));
  // Arena: at least 64 doubles (512 bytes), at most 1 TiB per slot — the
  // per-slot __int128 total check in the constructor still applies on top.
  options.arena_doubles =
      env_u64("WHTLAB_IPC_ARENA_BYTES", options.arena_doubles * sizeof(double),
              64 * sizeof(double), std::uint64_t{1} << 40) /
      sizeof(double);
  options.timeout_ms =
      env_u64("WHTLAB_IPC_TIMEOUT_MS", options.timeout_ms, 1, 86400000);
  options.sweep_ms =
      env_u64("WHTLAB_IPC_SWEEP_MS", options.sweep_ms, 1, 60000);
  options.credit_limit = env_u64("WHTLAB_IPC_CREDITS", options.credit_limit,
                                 0, std::uint64_t{1} << 32);
  options.credit_window_ns =
      env_u64("WHTLAB_IPC_CREDIT_WINDOW_MS",
              options.credit_window_ns / 1000000ULL, 1, 3600000) *
      1000000ULL;
  options.strike_limit = static_cast<std::uint32_t>(
      env_u64("WHTLAB_IPC_STRIKES", options.strike_limit, 0, 1000000));
  options.drain_ms =
      env_u64("WHTLAB_IPC_DRAIN_MS", options.drain_ms, 1, 86400000);
  options.stats_publish_ms = env_u64("WHTLAB_IPC_STATS_PUBLISH_MS",
                                     options.stats_publish_ms, 0, 3600000);
  // The daemon arms the Engine circuit breaker by default: a serving
  // process must degrade to the reference backend, not crash or corrupt.
  options.engine.quarantine_strikes = static_cast<int>(
      env_u64("WHTLAB_IPC_QUARANTINE", 3, 0, 1000000));
  options.engine.probation_ms =
      env_u64("WHTLAB_IPC_PROBATION_MS", 2000, 1, 86400000);
  options.engine.verify_finite =
      env_u64("WHTLAB_IPC_VERIFY", 1, 0, 1) != 0;
  return options;
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  // Serving entry point: a WHTLAB_FAULTS spec set on the daemon process
  // arms its fault points here (no-op when unset).
  fault::arm_from_env();
  if (options_.slots < 1 || options_.slots > 1024) {
    throw std::invalid_argument("ipc::Daemon: slots must be in [1, 1024]");
  }
  if (options_.arena_doubles < 64) {
    throw std::invalid_argument("ipc::Daemon: arena must hold >= 64 doubles");
  }
  if (options_.sweep_ms < 1) {
    throw std::invalid_argument("ipc::Daemon: sweep_ms must be >= 1");
  }
  if (options_.timeout_ms < 1) {
    throw std::invalid_argument("ipc::Daemon: timeout_ms must be >= 1");
  }
  if (options_.credit_window_ns < 1) {
    throw std::invalid_argument("ipc::Daemon: credit_window_ns must be >= 1");
  }
  if (options_.drain_ms < 1) {
    throw std::invalid_argument("ipc::Daemon: drain_ms must be >= 1");
  }
  layout_.slot_count = options_.slots;
  layout_.arena_doubles = options_.arena_doubles;
  // Overflow-check the segment size in 128-bit before Layout's 64-bit
  // arithmetic can wrap: slots * (slot struct + arena bytes) + header.
  const auto total =
      static_cast<unsigned __int128>(options_.slots) *
          (static_cast<unsigned __int128>(options_.arena_doubles) *
               sizeof(double) +
           sizeof(SlotShared)) +
      sizeof(ControlHeader);
  if (total > (static_cast<unsigned __int128>(1) << 47)) {
    throw std::invalid_argument(
        "ipc::Daemon: slots * arena would need an implausible segment "
        "(> 128 TiB); lower WHTLAB_IPC_SLOTS or WHTLAB_IPC_ARENA_BYTES");
  }

  slot_local_.resize(options_.slots);
  const std::string canonical = shm_name_for(options_.endpoint);
  if (options_.standby) {
    // A standby binds the staging name; peek the incumbent's canonical
    // segment so promote() can continue its epoch chain even if the
    // incumbent finishes draining (and unlinks) before promote() runs.
    try {
      const Shm existing = Shm::open(canonical);
      if (existing.size() >= sizeof(ControlHeader)) {
        const auto* hdr = static_cast<const ControlHeader*>(existing.data());
        if (hdr->magic == kMagic) {
          epoch_base_ = hdr->epoch.load(std::memory_order_acquire);
        }
      }
    } catch (const std::runtime_error&) {
      // No incumbent: the epoch chain starts at 1 either way.
    }
  }
  const std::string name =
      options_.standby ? shm_name_for(options_.endpoint + ".next") : canonical;
  shm_ = bind_segment(name, /*cede_draining=*/false,
                      /*staging=*/options_.standby, /*wait_ms=*/0);
  engine_ = std::make_unique<api::Engine>(options_.engine);
  header()->daemon_pid.store(static_cast<std::uint32_t>(::getpid()),
                             std::memory_order_release);
  bind_stats_page();
  // Construction complete, Engine cold: kWarming until start() (a standby
  // stays here through prewarm() and promote()).  Clients may attach from
  // now on — attach admits kBooting/kWarming/kServing alike.
  set_lifecycle(Lifecycle::kWarming);
}

void Daemon::bind_stats_page() {
  // We own the serving segment by now, so any page under this name is a
  // crashed predecessor's leftover; replace it (observers re-map by name).
  const std::string name = shm_.name() + ".stats";
  Shm::unlink(name);
  stats_shm_ = Shm::create(name, sizeof(StatsPage));
  auto* page = static_cast<StatsPage*>(stats_shm_.data());
  StatsPageHeader& h = page->header;
  stats_write_begin(h);
  stats_store(h.magic, kStatsMagic);
  stats_store(h.version, kStatsVersion);
  stats_store(h.pid, static_cast<std::uint32_t>(::getpid()));
  stats_store(h.epoch, header()->epoch.load(std::memory_order_acquire));
  stats_write_end(h);
}

void Daemon::publish_stats_page() {
  if (!stats_shm_.valid()) return;
  auto* page = static_cast<StatsPage*>(stats_shm_.data());
  const telemetry::Snapshot series = engine_->telemetry_snapshot();
  const api::Engine::Stats totals = engine_->stats();
  StatsPageHeader& h = page->header;
  stats_write_begin(h);
  stats_store(h.published_ns, monotonic_ns());
  stats_store(h.totals.requests, totals.singles + totals.batches);
  stats_store(h.totals.vectors, totals.vectors);
  stats_store(h.totals.batches, totals.batches);
  stats_store(h.totals.failures, totals.failures);
  stats_store(h.totals.fallbacks, totals.fallbacks);
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::size_t>(series.size(), kStatsSeriesCapacity));
  stats_store(h.series_count, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const telemetry::SeriesSnapshot& in = series[i];
    StatsSeries& out = page->series[i];
    stats_store(out.n, in.n);
    stats_store(out.batch, in.batch ? 1 : 0);
    char backend[sizeof(out.backend)];
    std::snprintf(backend, sizeof(backend), "%s", in.backend.c_str());
    for (std::size_t c = 0; c < sizeof(backend); ++c) {
      stats_store(out.backend[c], backend[c]);
    }
    stats_store(out.count, in.stats.count);
    stats_store(out.min, in.stats.count == 0 ? 0 : in.stats.min);
    stats_store(out.max, in.stats.max);
    stats_store(out.mean, in.stats.mean());
    stats_store(out.p50, in.stats.percentile(0.50));
    stats_store(out.p99, in.stats.percentile(0.99));
  }
  stats_write_end(h);
}

void Daemon::release_stats_page() {
  if (!stats_shm_.valid()) return;
  Shm::unlink(stats_shm_.name());
  stats_shm_ = Shm();  // unmap; later publish calls become no-ops
}

Shm Daemon::bind_segment(const std::string& shm_name, bool cede_draining,
                         bool staging, std::uint64_t wait_ms) {
  const std::uint64_t give_up = monotonic_ns() + wait_ms * 1000000ULL;
  Shm shm;
  for (;;) {
    try {
      shm = Shm::create(shm_name, layout_.total_bytes());
      break;
    } catch (const std::runtime_error&) {
      // A segment already carries this name.  Take it over only if its
      // recorded daemon is provably gone (crashed predecessor that never
      // unlinked) — or, on the promote() path, live but *ceding*: a
      // draining or stopped predecessor has given up the endpoint even
      // though its process still runs out its drain.
      bool stale = false;
      try {
        const Shm existing = Shm::open(shm_name);
        if (existing.size() < sizeof(ControlHeader)) {
          stale = true;
        } else {
          const auto* hdr = static_cast<const ControlHeader*>(existing.data());
          if (hdr->magic == kMagic) {
            const std::uint64_t seen =
                hdr->epoch.load(std::memory_order_acquire);
            if (seen > epoch_base_) epoch_base_ = seen;
          }
          stale = hdr->magic != kMagic ||
                  hdr->shutdown.load(std::memory_order_acquire) != 0 ||
                  !pid_alive(hdr->daemon_pid.load(std::memory_order_acquire));
          if (!stale && cede_draining) {
            // The promote() path: a live predecessor cedes by RELEASING
            // the name at drain completion (observed below as ENOENT) or
            // by reaching kStopped.  kDraining alone is not a cede — the
            // predecessor still owns the unlink half of the transition,
            // and displacing it mid-drain would race its release.
            const auto lc = static_cast<Lifecycle>(
                hdr->lifecycle.load(std::memory_order_acquire));
            stale = lc == Lifecycle::kStopped;
          }
        }
      } catch (const std::runtime_error&) {
        stale = true;  // vanished between create and open; retry below
      }
      // With takeover disabled only promote()'s cede rule may displace a
      // predecessor, however stale it looks.
      if (!options_.takeover_stale && !cede_draining) stale = false;
      if (!stale) {
        if (cede_draining && monotonic_ns() < give_up) {
          // The predecessor serves on; absorb the SIGTERM -> kDraining
          // publication race by polling briefly.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        throw Error(Status::kServerFull,
                    "ipc::Daemon: endpoint '" + options_.endpoint +
                        "' already served by a live daemon");
      }
      Shm::unlink(shm_name);
      // Loop: recreate under the freed name (another claimant may race the
      // create; whoever loses sees the winner's live header and throws).
    }
  }

  // The segment is kernel-zeroed: every ring empty, every slot kFree, all
  // stats zero, lifecycle kBooting.  Publish config, then magic; the caller
  // stores daemon_pid last — a client that sees a live daemon_pid may rely
  // on everything before it.
  auto* hdr = layout_.header(shm.data());
  hdr->version = kVersion;
  hdr->abi = abi_tag();
  hdr->slot_count = options_.slots;
  hdr->ring_depth = kRingDepth;
  hdr->arena_doubles = options_.arena_doubles;
  hdr->timeout_ms = options_.timeout_ms;
  hdr->credit_limit = options_.credit_limit;
  hdr->credit_window_ns = options_.credit_window_ns;
  hdr->strike_limit = options_.strike_limit;
  hdr->drain_ms = options_.drain_ms;
  hdr->epoch.store(staging ? 0 : (epoch_base_ + 1),
                   std::memory_order_release);
  hdr->magic = kMagic;
  // Per-slot trust/budget state stays daemon-local: the shared segment gets
  // only the advisory balance word.  A fresh segment means fresh tenants.
  for (std::uint32_t s = 0; s < options_.slots; ++s) {
    slot_local_[s].credits =
        CreditBucket(options_.credit_limit, options_.credit_window_ns);
    slot_local_[s].strikes = StrikeCounter(options_.strike_limit);
    slot_local_[s].new_tenant(0);
    layout_.slot(shm.data(), s)
        ->credits.store(options_.credit_limit, std::memory_order_relaxed);
  }
  return shm;
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // Destructors stay noexcept; the segment unlink below still runs.
  }
  if (!stopped_ && shm_.valid()) unlink_if_owned();
}

void Daemon::start() {
  if (running_.load(std::memory_order_acquire) || stopped_) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  set_lifecycle(Lifecycle::kServing);
  service_ = std::thread([this] { service_loop(); });
}

void Daemon::stop() {
  if (stopped_) return;
  stop_requested_.store(true, std::memory_order_release);
  if (shm_.valid()) futex_wake_all(header()->doorbell);
  if (service_.joinable()) service_.join();
  running_.store(false, std::memory_order_release);
  // Stats page first, serving words second: a successor waits for the
  // shutdown/kStopped publication below before binding its own page, so
  // this unlink can never hit the successor's.
  release_stats_page();
  if (shm_.valid()) {
    // Publish the end of the endpoint, wake every parked client so it can
    // observe it, and remove the name.  Mapped clients keep their (now
    // shutdown-flagged) segment until they unmap; new connects fail fast.
    ControlHeader* hdr = header();
    hdr->shutdown.store(1, std::memory_order_release);
    hdr->daemon_pid.store(0, std::memory_order_release);
    hdr->lifecycle.store(Lifecycle::kStopped, std::memory_order_release);
    futex_wake_all(hdr->doorbell);
    for (std::uint32_t s = 0; s < options_.slots; ++s) {
      futex_wake_all(slot(s)->responses.tail);
    }
    unlink_if_owned();
  }
  stopped_ = true;
}

void Daemon::release_name() {
  // The drain-completion half of a handoff: give the canonical name up
  // while still kDraining.  Everything after this point must never unlink
  // by name again — the successor recreates the name the instant it sees
  // the release, and a late unlink from this process would tear the
  // successor's endpoint down (the classic probe-then-unlink TOCTOU this
  // ordering exists to close).
  if (name_released_ || !shm_.valid()) return;
  name_released_ = true;
  release_stats_page();  // before the name: same single-owner transition
  Shm::unlink(shm_.name());
}

void Daemon::unlink_if_owned() {
  if (name_released_) return;  // the name belongs to a successor now
  // After a handoff the canonical name belongs to the successor — its
  // header carries a bumped epoch and a live pid that is not ours (ours
  // was zeroed through our own mapping of the *old* segment).  Unlinking
  // then would tear the successor's endpoint down; probe by name first.
  // Epochs are compared as well as pids: two Daemons can share one process
  // (in-process handoff tests), where the pid alone cannot tell the
  // predecessor's mapping from the successor's.
  const std::uint64_t my_epoch =
      header()->epoch.load(std::memory_order_acquire);
  bool ours = true;
  try {
    const Shm current = Shm::open(shm_.name());
    if (current.size() >= sizeof(ControlHeader)) {
      const auto* h = static_cast<const ControlHeader*>(current.data());
      const std::uint32_t pid = h->daemon_pid.load(std::memory_order_acquire);
      if (h->magic == kMagic &&
          h->epoch.load(std::memory_order_acquire) != my_epoch) {
        ours = false;  // a successor generation took the name over
      } else {
        ours = h->magic != kMagic || pid == 0 ||
               pid == static_cast<std::uint32_t>(::getpid()) ||
               h->shutdown.load(std::memory_order_acquire) != 0 ||
               !pid_alive(pid);
      }
    }
  } catch (const std::runtime_error&) {
    ours = false;  // the name is already gone: nothing to unlink
  }
  if (ours) Shm::unlink(shm_.name());
}

Lifecycle Daemon::lifecycle() const {
  if (!shm_.valid()) return Lifecycle::kStopped;
  return static_cast<Lifecycle>(
      header()->lifecycle.load(std::memory_order_acquire));
}

std::uint64_t Daemon::epoch() const {
  if (!shm_.valid()) return 0;
  return header()->epoch.load(std::memory_order_acquire);
}

void Daemon::set_lifecycle(Lifecycle lifecycle) {
  if (shm_.valid()) {
    header()->lifecycle.store(lifecycle, std::memory_order_release);
  }
}

std::size_t Daemon::prewarm() {
  const std::size_t built = engine_->prewarm();
  if (shm_.valid()) {
    // Published so supervisors and tests can verify the successor serves
    // warm *before* it takes the endpoint over.
    header()->prewarmed.store(static_cast<std::uint32_t>(built),
                              std::memory_order_release);
  }
  return built;
}

void Daemon::drain(std::uint64_t deadline_ms) {
  const std::lock_guard<std::mutex> lock(drain_mutex_);
  if (stopped_ || draining_.load(std::memory_order_acquire)) return;
  const std::uint64_t budget_ms =
      deadline_ms != 0 ? deadline_ms : options_.drain_ms;
  // Deadline before flag: the service loop reads them in the opposite
  // order, so it never sees the drain without its budget.
  drain_deadline_ns_.store(monotonic_ns() + budget_ms * 1000000ULL,
                           std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  if (!running_.load(std::memory_order_acquire)) {
    // Never started (or already joined): nothing can be in flight.  Flush
    // and park directly — the lifecycle edge still publishes, and the name
    // release still precedes it (same ordering as the service-loop tail).
    if (engine_) engine_->flush_wisdom();
    release_name();
    set_lifecycle(Lifecycle::kStopped);
    return;
  }
  // Publish immediately: clients probing the lifecycle word switch to the
  // fast re-handshake path without waiting for a service-loop iteration.
  set_lifecycle(Lifecycle::kDraining);
  if (shm_.valid()) futex_wake_all(header()->doorbell);
}

bool Daemon::wait_drained(std::uint64_t timeout_ms) {
  const std::uint64_t deadline = monotonic_ns() + timeout_ms * 1000000ULL;
  while (lifecycle() != Lifecycle::kStopped) {
    if (monotonic_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void Daemon::promote(std::uint64_t wait_ms) {
  if (!options_.standby) {
    throw std::logic_error("ipc::Daemon: promote() requires a standby daemon");
  }
  if (stopped_ || running_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "ipc::Daemon: promote() must run before start() / after no stop()");
  }
  const std::string staging = shm_.name();
  const std::uint32_t prewarmed =
      header()->prewarmed.load(std::memory_order_acquire);
  // Waits for the predecessor to cede (dead, shut down, draining, or
  // stopped), then binds a fresh canonical segment with its epoch + 1.
  Shm canonical = bind_segment(shm_name_for(options_.endpoint),
                               /*cede_draining=*/true, /*staging=*/false,
                               wait_ms);
  // The staging name has served its purpose; drop it before the old
  // mapping goes away so a crash in between cannot leave it lingering.
  release_stats_page();  // the staging page goes with the staging segment
  Shm::unlink(staging);
  shm_ = std::move(canonical);  // unmaps the staging segment
  ControlHeader* hdr = header();
  hdr->prewarmed.store(prewarmed, std::memory_order_release);
  hdr->daemon_pid.store(static_cast<std::uint32_t>(::getpid()),
                        std::memory_order_release);
  bind_stats_page();  // now under the canonical name
  options_.standby = false;
  set_lifecycle(Lifecycle::kWarming);  // kServing once start() runs
}

Daemon::Stats Daemon::stats() const {
  if (!shm_.valid()) return {};
  return load_stats(header()->stats);
}

void Daemon::service_loop() {
  const std::uint64_t sweep_ns = options_.sweep_ms * 1000000ULL;
  std::uint64_t last_sweep = monotonic_ns();
  const std::uint64_t publish_ns = options_.stats_publish_ms * 1000000ULL;
  std::uint64_t last_publish = 0;  // 0: publish on the first iteration

  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Supervision heartbeat: stamped at least once per iteration, and the
    // idle park below is bounded by the sweep period, so a healthy loop
    // never lets the stamp age beyond ~sweep_ms + one serve.  (First-touch
    // planning on this thread can stall it for seconds — the supervisor's
    // wedge threshold must stay generous.)
    header()->heartbeat_ns.store(monotonic_ns(), std::memory_order_relaxed);
    if (fault::enabled()) {
      if (fault::point("ipc.daemon.service")) {
        // An unhandled serving-loop error: the exception leaves the thread
        // and std::terminate brings the whole process down — precisely the
        // crash the supervisor (whtd --supervise) exists to absorb.
        throw std::runtime_error("ipc::Daemon: service loop fault injected");
      }
      if (fault::point("ipc.daemon.wedge")) {
        // A wedged (not dead) daemon: alive pid, stale heartbeat.  Spin
        // here without stamping until stopped or killed from outside.
        while (!stop_requested_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        break;
      }
    }
    const std::uint32_t seen =
        header()->doorbell.load(std::memory_order_acquire);
    const bool progress = poll_requests();

    const std::uint64_t now = monotonic_ns();
    if (now - last_sweep >= sweep_ns) {
      sweep();
      last_sweep = now;
    }
    if (publish_ns != 0 && now - last_publish >= publish_ns) {
      publish_stats_page();
      last_publish = now;
    }

    if (draining_.load(std::memory_order_acquire)) {
      // Graceful drain: no parking from here on.  Every admitted request
      // was executed and answered within its poll pass, so the drain is
      // done once every live client's rings are empty — every answer
      // consumed.  A consumer that never drains its ring (SIGSTOPped under
      // load) hits the deadline instead: the drain aborts typed and
      // counted, never hangs.
      if (rings_flushed()) {
        header()->stats.drained.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (monotonic_ns() >= drain_deadline_ns_.load(std::memory_order_acquire)) {
        header()->stats.drain_aborted.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (!progress) {
        // Only consumers are left to act; poll their cursors gently.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    if (progress) continue;

    // Idle: park on the doorbell until a client rings or the sweep is due.
    const std::uint64_t since_sweep = monotonic_ns() - last_sweep;
    const std::int64_t budget =
        since_sweep >= sweep_ns
            ? 0
            : static_cast<std::int64_t>(sweep_ns - since_sweep);
    if (budget > 0) {
      spin_then_wait(header()->doorbell, seen, /*spins=*/4000, budget);
    }
  }

  if (draining_.load(std::memory_order_acquire)) {
    // Durability barrier before the lifecycle edge: winners recorded this
    // run provably survive into the successor's prewarm.  The name is
    // released BEFORE kStopped — the successor only recreates the
    // canonical name after observing the release (ENOENT) or kStopped, and
    // this daemon never unlinks again (name_released_), so exactly one
    // process ever owns the unlink→create transition.  kStopped is what
    // wait_drained() and the supervisor's handoff sequence poll for.
    engine_->flush_wisdom();
    release_name();
    set_lifecycle(Lifecycle::kStopped);
  }
}

bool Daemon::rings_flushed() const {
  for (std::uint32_t s = 0; s < options_.slots; ++s) {
    SlotShared* cell = slot(s);
    if (cell->state.load(std::memory_order_acquire) != kActive) continue;
    const std::uint32_t pid = cell->pid.load(std::memory_order_acquire);
    if (!pid_alive(pid)) continue;  // a corpse is the sweep's problem
    const std::uint32_t requests = cell->requests.size();
    const std::uint32_t responses = cell->responses.size();
    // Scribbled cursor words report impossible occupancy (> ring depth);
    // nothing deliverable lives there, so they cannot hold the drain open.
    if (requests != 0 && requests <= kRingDepth) return false;
    if (responses != 0 && responses <= kRingDepth) return false;
  }
  return true;
}

bool Daemon::poll_requests() {
  bool any = false;
  for (std::uint32_t s = 0; s < options_.slots; ++s) {
    SlotShared* cell = slot(s);
    if (cell->state.load(std::memory_order_acquire) != kActive) continue;
    const std::uint64_t gen =
        cell->generation.load(std::memory_order_acquire);
    if (gen != slot_local_[s].seen_generation) {
      // A new client took this slot: budgets and rap sheet start fresh.
      slot_local_[s].new_tenant(gen);
      cell->credits.store(options_.credit_limit, std::memory_order_relaxed);
    }
    // Bounded drain: at most one ring's worth per slot per round.  A
    // byzantine producer that keeps bumping its tail cursor could otherwise
    // pin the loop on one slot and starve its neighbours (and the
    // heartbeat) — with the bound it buys at most kRingDepth pops before
    // the round moves on.
    Request request;
    for (std::uint32_t budget = kRingDepth; budget != 0; --budget) {
      const RingOp op = cell->requests.try_pop_checked(request);
      if (op == RingOp::kEmpty) break;
      any = true;
      if (op == RingOp::kCorrupt) {
        // Scribbled cursor words: an impossible occupancy, not a full ring.
        // Typed signal + strike; never trust the delta enough to read.
        header()->stats.protocol_errors.fetch_add(1,
                                                  std::memory_order_relaxed);
        strike(s, cell);
        break;
      }
      handle_request(s, cell, gen, request);
      if (cell->state.load(std::memory_order_acquire) != kActive ||
          cell->generation.load(std::memory_order_acquire) != gen) {
        break;  // the tenant was evicted mid-drain; its queue died with it
      }
    }
  }
  return any;
}

void Daemon::handle_request(std::uint32_t index, SlotShared* cell,
                            std::uint64_t gen, const Request& request) {
  SharedStats& stats = header()->stats;
  stats.requests.fetch_add(1, std::memory_order_relaxed);
  SlotLocal& local = slot_local_[index];

  // Trust boundary (validate.hpp): `request` is already a daemon-local
  // snapshot — the checked pop copied it out of the shared ring — and every
  // verdict below is about that snapshot only.  The bounds come from
  // options_/layout_, never from the (client-writable) header.
  const SlotBounds bounds{options_.arena_doubles, kMaxRequestN};
  const Verdict verdict =
      validate_request(request, gen, local.last_counter, bounds);
  if (verdict == Verdict::kStaleGeneration) {
    // A previous slot owner's late push racing the reclaim — expected
    // churn, not hostility; must not be answered into the current owner's
    // ring.
    stats.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (verdict != Verdict::kAccept) {
    // A state the shipped client library can never produce: answer typed,
    // book a strike, evict on repeat offense.
    stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    respond(index, cell, request.seq, Status::kProtocolError);
    strike(index, cell);
    return;
  }
  local.last_counter = static_cast<std::uint32_t>(request.seq & 0xffffffffULL);

  if (draining_.load(std::memory_order_acquire)) {
    // Planned restart: admission is closed.  Refuse typed with a retry
    // hint — the remaining drain budget bounds how soon the successor owns
    // the endpoint, so a handoff-aware client re-handshakes immediately
    // instead of backing off.
    stats.drain_refused.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t deadline =
        drain_deadline_ns_.load(std::memory_order_acquire);
    const std::uint64_t at = monotonic_ns();
    const std::int32_t hint_ms =
        deadline > at ? static_cast<std::int32_t>((deadline - at) / 1000000ULL)
                      : 0;
    respond(index, cell, request.seq, Status::kDraining, hint_ms);
    return;
  }

  const std::uint64_t now = monotonic_ns();
  // Overload degradation, cheapest check first.  Shedding precedes the
  // credit bucket: an expired request must not be charged for work that
  // will not happen, and a refused request is charged nothing either.
  if (request_expired(request, now)) {
    stats.shed_expired.fetch_add(1, std::memory_order_relaxed);
    respond(index, cell, request.seq, Status::kTimeout);
    return;
  }
  const bool admitted = local.credits.try_spend(request.count, now);
  cell->credits.store(local.credits.available(now), std::memory_order_relaxed);
  if (!admitted) {
    stats.credit_stalls.fetch_add(1, std::memory_order_relaxed);
    respond(index, cell, request.seq, Status::kThrottled);
    return;
  }

  // Singles and batches alike run in place in the client's arena, on the
  // arbitrated backend (the Engine books a count-1 call as a single).
  const std::uint64_t size = std::uint64_t{1} << request.n;
  Status status = Status::kOk;
  try {
    engine_->execute_many(static_cast<int>(request.n),
                          arena(index) + request.offset, request.count,
                          static_cast<std::ptrdiff_t>(size));
    stats.vectors.fetch_add(request.count, std::memory_order_relaxed);
  } catch (...) {
    status = Status::kExecError;
    stats.exec_errors.fetch_add(1, std::memory_order_relaxed);
  }
  complete(index, gen, request.seq, status);
}

void Daemon::complete(std::uint32_t index, std::uint64_t gen,
                      std::uint64_t seq, Status status) {
  SlotShared* cell = slot(index);
  if (cell->state.load(std::memory_order_acquire) != kActive ||
      cell->generation.load(std::memory_order_acquire) != gen) {
    // The requester released its slot while its request ran, and a
    // successor may already hold it: it must not see a stranger's answer.
    header()->stats.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  respond(index, cell, seq, status);
}

void Daemon::respond(std::uint32_t index, SlotShared* cell, std::uint64_t seq,
                     Status status, std::int32_t hint_ms) {
  Response response;
  response.seq = seq;
  response.status = static_cast<std::int32_t>(status);
  response.hint_ms = hint_ms;
  // The client-side inflight cap (client.cpp) keeps outstanding responses
  // below the ring depth, so a full ring means a protocol-violating client;
  // a brief retry covers consumption races, then the response is dropped
  // (the client will time out — its own doing).  A *corrupt* consumer
  // cursor is different: no amount of waiting un-scribbles it, so the push
  // is abandoned immediately and the offense is struck.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // The injected fault makes this push attempt behave as a full ring,
    // exercising the retry-then-drop path on demand.
    const bool ring_full =
        fault::enabled() && fault::point("ipc.ring.publish");
    const RingOp op =
        ring_full ? RingOp::kFull : cell->responses.try_push_checked(response);
    if (op == RingOp::kOk) {
      futex_wake_all(cell->responses.tail);
      return;
    }
    if (op == RingOp::kCorrupt) {
      header()->stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      strike(index, cell);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
  header()->stats.dropped.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::strike(std::uint32_t index, SlotShared* cell) {
  if (slot_local_[index].strikes.strike()) evict(index, cell);
}

void Daemon::evict(std::uint32_t index, SlotShared* cell) {
  // Generation bump FIRST: from this store on, every outstanding seq of
  // the evicted tenant is stale — late ring pushes die in
  // validate_request.  Then free the slot exactly like a dead-client
  // reclaim.  The evicted process keeps its (read-only-to-us) mapping; its
  // next wait notices the generation change and resolves typed instead of
  // hanging (client.cpp's eviction probe).
  cell->generation.fetch_add(1, std::memory_order_acq_rel);
  cell->pid.store(0, std::memory_order_release);
  cell->requests.reset();
  cell->responses.reset();
  cell->state.store(kFree, std::memory_order_release);
  futex_wake_all(cell->responses.tail);
  slot_local_[index].new_tenant(
      cell->generation.load(std::memory_order_acquire));
  header()->stats.evictions.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::sweep() {
  for (std::uint32_t s = 0; s < options_.slots; ++s) {
    SlotShared* cell = slot(s);
    const std::uint32_t state = cell->state.load(std::memory_order_acquire);
    if (state == kFree) {
      slot_local_[s].claim_strikes = 0;
      continue;
    }
    const std::uint32_t pid = cell->pid.load(std::memory_order_acquire);
    if (pid != 0) {
      slot_local_[s].claim_strikes = 0;
      if (!pid_alive(pid)) reclaim(s, cell);
    } else {
      // Non-free but ownerless: a kClaimed handshake in progress
      // (microseconds), a client that died mid-claim, or a byzantine
      // tenant that scribbled its own pid/state words (kActive with pid 0
      // is unreachable through the client library).  Three sweep periods
      // of grace separates a live handshake from a zombie either way.
      if (++slot_local_[s].claim_strikes >= 3) reclaim(s, cell);
    }
  }
}

void Daemon::reclaim(std::uint32_t index, SlotShared* cell) {
  // The owner is dead, so the daemon is the only toucher: reset both rings
  // (dropping anything the corpse left queued), clear the pid, and free the
  // slot.
  cell->pid.store(0, std::memory_order_release);
  cell->requests.reset();
  cell->responses.reset();
  cell->state.store(kFree, std::memory_order_release);
  slot_local_[index].claim_strikes = 0;
  header()->stats.reclaimed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace whtlab::ipc
