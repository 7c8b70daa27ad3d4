// The whtd shared-memory serving protocol: segment layout + message types.
//
// One named shm segment per serving endpoint holds everything daemon and
// clients exchange:
//
//   [ ControlHeader | Slot 0 | Slot 1 | ... | arena 0 | arena 1 | ... ]
//
// Each client slot is a SlotShared — claim state, a single-writer request
// ring (client -> daemon) and a single-writer response ring (daemon ->
// client) — plus a fixed per-slot staging arena of doubles at the back of
// the segment.  Requests never carry vector data: the client writes its
// vectors straight into its own arena and sends (offset, n, count); the
// daemon executes *in place* there and the client reads the spectrum back
// from the same memory.  Zero copies cross the process boundary.
//
// Slot lifecycle (the admission-control and crash-reclaim state machine):
//
//   kFree --CAS by client--> kClaimed --client wrote pid, reset rings-->
//   kActive --client release / daemon reclaim--> kFree
//
// The daemon only ever touches rings of kActive slots, so the claimant is
// provably alone while it resets them.  A pid-liveness sweep in the daemon
// frees slots whose owner died (kill(pid, 0) == ESRCH), resets their rings,
// and drops their in-flight requests — one crashed client can never wedge
// the daemon or leak its slot.  Slot generations disambiguate reuse: every
// claim bumps `generation`, request seq numbers embed it, and the daemon
// drops completions whose generation no longer matches (a response for a
// dead client must not leak into its successor's ring).
//
// Every struct here lives in shared memory: standard-layout, pointer-free,
// lock-free atomics only, and zero-initialized-is-valid (a fresh segment is
// kernel-zeroed).  `kVersion`/`kAbiTag` gate mismatched binaries at connect.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ipc/spsc_ring.hpp"

namespace whtlab::ipc {

// --- typed serving errors ---------------------------------------------------

enum class Status : std::int32_t {
  kOk = 0,
  kServerFull,   ///< admission control: every client slot is claimed
  kThrottled,    ///< credit budget exhausted — typed backpressure
  kTimeout,      ///< no response within the deadline (daemon overloaded?),
                 ///< or the request expired before execution (load shedding)
  kDaemonGone,   ///< daemon shut down, or its pid is no longer alive
  kBadRequest,   ///< client-side argument rejection (n/count/offset)
  kTooLarge,     ///< request does not fit the slot arena
  kExecError,    ///< execution threw inside the daemon
  kProtocolError,  ///< wire-level violation caught at the daemon's trust
                   ///< boundary (validate.hpp) — an honest client library
                   ///< never elicits this; repeat offenders are evicted
  kDraining,     ///< daemon is gracefully draining (planned restart): the
                 ///< request was not executed; re-handshake against the
                 ///< endpoint — a warm successor is taking over.  The typed
                 ///< answer carries a retry hint (Response::hint_ms).
};

const char* to_string(Status status);

// --- daemon lifecycle -------------------------------------------------------

/// The daemon lifecycle state machine, published in the control header so
/// clients, the supervisor, and ops tooling all see the same word:
///
///   kBooting --segment+Engine built--> kWarming --start()--> kServing
///     kServing --drain()/SIGTERM--> kDraining --in-flight done--> kStopped
///
/// A fresh (kernel-zeroed) segment reads kBooting.  kWarming covers wisdom
/// prewarming — a warm-standby successor sits here, against a staging
/// segment, until the supervisor promotes it.  kDraining means "alive,
/// finishing in-flight work, admitting nothing new": new submissions answer
/// the typed kDraining status and resilient clients re-handshake instead of
/// backing off.  kStopped is terminal (the shutdown flag follows shortly).
enum Lifecycle : std::uint32_t {
  kBooting = 0,
  kWarming = 1,
  kServing = 2,
  kDraining = 3,
  kStopped = 4,
};

const char* to_string(Lifecycle lifecycle);

/// Exception face of Status for the paths where failing is exceptional
/// (connect/handshake, staging).  The serving hot path (transform/wait)
/// returns Status instead — a throttled request is an answer, not a crash.
class Error : public std::runtime_error {
 public:
  Error(Status status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

// --- wire messages ----------------------------------------------------------

struct Request {
  std::uint64_t seq = 0;     ///< (generation << 32) | client-local counter
  std::uint32_t n = 0;       ///< transform size log2
  std::uint32_t count = 0;   ///< vectors, packed contiguously
  std::uint64_t offset = 0;  ///< first double, relative to this slot's arena
  /// Absolute monotonic_ns() expiry for this request; 0 = no deadline.
  /// CLOCK_MONOTONIC is machine-wide, so daemon and clients share the
  /// timeline.  A request already past its deadline when the daemon would
  /// execute it is shed with kTimeout instead of burning cycles on an
  /// answer nobody is waiting for (overload degradation, daemon.hpp).
  std::uint64_t deadline_ns = 0;
};

struct Response {
  std::uint64_t seq = 0;
  std::int32_t status = 0;   ///< Status
  /// Retry hint in milliseconds, meaningful with kDraining: how soon the
  /// client should expect the successor daemon to own the endpoint (derived
  /// from the drain deadline).  0 = none.
  std::int32_t hint_ms = 0;
};

inline constexpr std::uint32_t kRingDepth = 64;

using RequestRing = SpscRing<Request, kRingDepth>;
using ResponseRing = SpscRing<Response, kRingDepth>;

// --- slot table -------------------------------------------------------------

enum SlotState : std::uint32_t {
  kFree = 0,
  kClaimed = 1,  ///< CAS won; pid/rings not yet published
  kActive = 2,   ///< serving
};

struct SlotShared {
  std::atomic<std::uint32_t> state;  ///< SlotState
  std::atomic<std::uint32_t> pid;    ///< owner, for the liveness sweep
  std::atomic<std::uint64_t> generation;  ///< bumped by every claim/eviction
  /// Advisory credit balance, published (daemon-written) after every
  /// admission decision when credit flow control is armed.  Clients may
  /// read it to pace themselves before hitting kThrottled; the *binding*
  /// balance lives in daemon-local memory (a client scribbling this word
  /// changes nothing about what the daemon admits).
  std::atomic<std::uint64_t> credits;
  RequestRing requests;    ///< client produces, daemon consumes
  ResponseRing responses;  ///< daemon produces, client consumes
};

// --- daemon stats, exported through the segment -----------------------------

/// Live serving counters the daemon maintains in the control header, so any
/// process that can map the segment (clients, `whtd --stats`, ops tooling)
/// reads a consistent-enough snapshot without a request round-trip.
struct SharedStats {
  std::atomic<std::uint64_t> requests;     ///< popped from request rings
  std::atomic<std::uint64_t> vectors;      ///< transforms executed
  std::atomic<std::uint64_t> bad_request;  ///< rejected by validation
  std::atomic<std::uint64_t> exec_errors;  ///< execution threw
  std::atomic<std::uint64_t> reclaimed;    ///< slots freed by the sweep
  std::atomic<std::uint64_t> dropped;      ///< completions with stale generation
  /// Trust-boundary + overload counters (PR 8).
  std::atomic<std::uint64_t> protocol_errors;  ///< wire violations (validate.hpp)
  std::atomic<std::uint64_t> evictions;    ///< slots evicted for repeat offense
  std::atomic<std::uint64_t> shed_expired;  ///< past-deadline requests shed
  std::atomic<std::uint64_t> credit_stalls;  ///< refused kThrottled for credits
  /// Lifecycle counters (protocol v4).
  std::atomic<std::uint64_t> drained;        ///< graceful drains completed
  std::atomic<std::uint64_t> drain_aborted;  ///< drains cut off at the deadline
  std::atomic<std::uint64_t> drain_refused;  ///< requests answered kDraining
};

/// Plain-value snapshot of SharedStats — what Daemon::stats() and
/// Client::stats() return (field meanings as above).
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t vectors = 0;
  /// Always 0: credit_stalls is the one refusal counter.  Kept only because
  /// perfbench's whtd_open workload reads it; it goes with the next change
  /// to that benchmark.
  std::uint64_t throttled = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t exec_errors = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t evictions = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t drained = 0;
  std::uint64_t drain_aborted = 0;
  std::uint64_t drain_refused = 0;
};

/// Relaxed load of every shared counter (each is an independent monotonic
/// tally, so the snapshot is consistent per field, not across fields).
DaemonStats load_stats(const SharedStats& shared);

/// One-line rendering for logs and `whtd --stats`:
/// "requests=N vectors=N ... drain_refused=N".
std::string to_string(const DaemonStats& stats);

// --- control header ---------------------------------------------------------

inline constexpr std::uint64_t kMagic = 0x7768746c61622d69ULL;  // "whtlab-i"
inline constexpr std::uint32_t kVersion = 4;  // v4: lifecycle/handoff ABI rev

struct ControlHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t abi;
  std::uint32_t slot_count;
  std::uint32_t ring_depth;
  std::uint64_t arena_doubles;   ///< per-slot staging capacity
  std::uint64_t timeout_ms;      ///< suggested client wait deadline
  /// Overload-control config, published for observability (the binding
  /// copies live in the daemon's DaemonOptions):
  std::uint64_t credit_limit;      ///< per-slot credit capacity (0 = off)
  std::uint64_t credit_window_ns;  ///< full-refill period of the bucket
  std::uint32_t strike_limit;      ///< protocol strikes before eviction (0 = never)
  /// Drain budget published for observability (the binding copy lives in
  /// DaemonOptions): how long a SIGTERM'd daemon finishes in-flight work
  /// before aborting the drain.
  std::uint64_t drain_ms;
  std::atomic<std::uint32_t> daemon_pid;  ///< liveness anchor for clients
  std::atomic<std::uint32_t> shutdown;    ///< 1 = daemon is gone / going
  /// Daemon lifecycle word (Lifecycle).  Clients read it on attach (a
  /// draining daemon refuses new tenants with the typed kDraining) and on
  /// their liveness probes (drain short-circuits reconnect backoff).
  std::atomic<std::uint32_t> lifecycle;
  /// Endpoint generation: bumped every time a successor daemon takes the
  /// canonical endpoint over from a predecessor (warm-standby handoff or
  /// stale-segment takeover).  A fresh endpoint starts at 1.  Lets tests
  /// and ops tooling count handoffs without parsing logs.
  std::atomic<std::uint64_t> epoch;
  /// Transforms rebuilt from wisdom before this daemon started serving
  /// (Daemon::prewarm) — the "successor took over warm" proof.
  std::atomic<std::uint32_t> prewarmed;
  /// Doorbell the daemon parks on: clients bump-and-wake after every request
  /// push, so one futex word covers all slots (the daemon rescans rings on
  /// every wake — cheap, slot_count is small).
  std::atomic<std::uint32_t> doorbell;
  std::uint32_t reserved;
  /// Supervision heartbeat: the service loop stamps monotonic_ns() at least
  /// once per sweep period, so a watchdog (`whtd --supervise`) that maps the
  /// segment can tell a *wedged* daemon (live pid, stale heartbeat) from a
  /// busy one and restart it.  0 until the service loop first runs.
  std::atomic<std::uint64_t> heartbeat_ns;
  SharedStats stats;
};

/// Compile-time ABI fingerprint: both sides must agree on the shared struct
/// sizes or the mapping is garbage.  Checked against the header at connect.
inline constexpr std::uint32_t abi_tag() {
  return static_cast<std::uint32_t>(sizeof(SlotShared)) ^
         (static_cast<std::uint32_t>(sizeof(Request)) << 16) ^
         (static_cast<std::uint32_t>(sizeof(Response)) << 24) ^
         (static_cast<std::uint32_t>(sizeof(ControlHeader)) << 4);
}

static_assert(std::is_standard_layout_v<ControlHeader>);
static_assert(std::is_standard_layout_v<SlotShared>);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm atomics must be address-free to work across processes");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm atomics must be address-free to work across processes");

// --- segment layout ---------------------------------------------------------

/// Byte offsets of every region, derived from (slot_count, arena_doubles).
/// Both sides compute it from the header, so it is never serialized.
struct Layout {
  std::uint32_t slot_count = 0;
  std::uint64_t arena_doubles = 0;

  static constexpr std::size_t align64(std::size_t bytes) {
    return (bytes + 63) & ~std::size_t{63};
  }

  std::size_t slots_offset() const { return align64(sizeof(ControlHeader)); }
  std::size_t slot_offset(std::uint32_t slot) const {
    return slots_offset() + slot * align64(sizeof(SlotShared));
  }
  std::size_t arenas_offset() const { return slot_offset(slot_count); }
  std::size_t arena_offset(std::uint32_t slot) const {
    return arenas_offset() + slot * arena_doubles * sizeof(double);
  }
  std::size_t total_bytes() const { return arena_offset(slot_count); }

  ControlHeader* header(void* base) const {
    return static_cast<ControlHeader*>(base);
  }
  SlotShared* slot(void* base, std::uint32_t index) const {
    return reinterpret_cast<SlotShared*>(static_cast<char*>(base) +
                                         slot_offset(index));
  }
  double* arena(void* base, std::uint32_t index) const {
    return reinterpret_cast<double*>(static_cast<char*>(base) +
                                     arena_offset(index));
  }
};

// --- telemetry stats page ---------------------------------------------------
//
// A second, tiny, *observer-only* segment per endpoint
// ("/whtlab.<endpoint>.stats") into which the daemon periodically publishes
// the Engine's telemetry snapshot.  Deliberately separate from the serving
// segment: the request-path ABI is untouched, observers map it read-only
// (Shm::open_readonly), and a scraper crash can never perturb serving
// state.  Consistency is a seqlock — the single writer (the service loop)
// never blocks on readers, and a reader detects a torn copy by the sequence
// word and retries.  Monitoring-grade: a reader that loses every retry
// reports staleness, nothing worse.

inline constexpr std::uint64_t kStatsMagic = 0x7768746c61622d73ULL;  // "whtlab-s"
inline constexpr std::uint32_t kStatsVersion = 1;
/// Series slots in the page.  (n <= 30) x (a handful of backends) x
/// (single|batch) stays far under this; overflow drops the tail (the
/// registry's stable ordering makes the drop deterministic).
inline constexpr std::uint32_t kStatsSeriesCapacity = 256;

/// One exported telemetry series — plain data, written only between the
/// seqlock edges.  Distribution values are cycles (ticks) per served vector.
struct StatsSeries {
  std::int32_t n;
  std::uint32_t batch;  ///< 0 = single-vector path, 1 = batched path
  char backend[24];     ///< NUL-terminated, truncated if longer
  std::uint64_t count;  ///< observations (record() calls)
  std::uint64_t min;
  std::uint64_t max;
  double mean;
  double p50;
  double p99;
};

/// Engine-level serving totals published alongside the series table.
struct StatsTotals {
  std::uint64_t requests;  ///< singles + batches since Engine construction
  std::uint64_t vectors;
  std::uint64_t batches;
  std::uint64_t failures;
  std::uint64_t fallbacks;
};

struct StatsPageHeader {
  std::uint64_t magic;    ///< kStatsMagic (written once at bind)
  std::uint32_t version;  ///< kStatsVersion
  std::uint32_t pid;      ///< publishing daemon
  std::uint64_t epoch;    ///< daemon takeover epoch at bind
  /// Seqlock word: odd while a publish is in progress.  Readers take a
  /// consistent copy with stats_read(); the writer never waits.
  std::atomic<std::uint64_t> seq;
  std::uint64_t published_ns;  ///< monotonic_ns() of the last publish
  std::uint32_t series_count;  ///< valid StatsSeries entries
  std::uint32_t reserved;
  StatsTotals totals;
};

struct StatsPage {
  StatsPageHeader header;
  StatsSeries series[kStatsSeriesCapacity];
};

static_assert(std::is_standard_layout_v<StatsPage>);

/// Seqlock write edges for the single publisher.  The acquire RMW keeps the
/// body writes from hoisting above "seq goes odd"; the release RMW keeps
/// them from sinking below "seq goes even".
inline void stats_write_begin(StatsPageHeader& header) {
  header.seq.fetch_add(1, std::memory_order_acquire);
}
inline void stats_write_end(StatsPageHeader& header) {
  header.seq.fetch_add(1, std::memory_order_release);
}

/// Every page field between the edges moves through std::atomic_ref, so a
/// reader racing a publish is a race the compiler may not tear and TSan can
/// follow, with no standalone fence.  A reader whose acquire load sees a
/// value of an unfinished publish also sees that publish's odd seq in its
/// closing read, which therefore cannot hoist above the body loads.  On
/// x86 both are plain moves.
template <typename T>
void stats_store(T& field, std::type_identity_t<T> value) {
  std::atomic_ref<T>(field).store(value, std::memory_order_release);
}
template <typename T>
T stats_load(const T& field) {
  // Only loads: the observer's read-only mapping is never written.
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_acquire);
}

/// Seqlock-consistent copy of the page: retries while the writer is mid-
/// publish or the sequence moved under the copy.  Returns false when no
/// consistent snapshot could be taken within `retries` attempts (a publish
/// storm — report staleness and try again later).
bool stats_read(const StatsPage& shared, StatsPage& out, int retries = 64);

/// The stats-page shm name for an endpoint: shm_name_for(endpoint) +
/// ".stats".
std::string stats_shm_name_for(const std::string& endpoint);

/// Monotonic nanoseconds (CLOCK_MONOTONIC) — the protocol's only clock:
/// credit refills, wait deadlines, sweep periods.
std::uint64_t monotonic_ns();

}  // namespace whtlab::ipc
