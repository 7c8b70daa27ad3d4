#include "ipc/protocol.hpp"

#include <cstring>
#include <ctime>

#include "ipc/shm.hpp"

namespace whtlab::ipc {

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kServerFull: return "server-full";
    case Status::kThrottled: return "throttled";
    case Status::kTimeout: return "timeout";
    case Status::kDaemonGone: return "daemon-gone";
    case Status::kBadRequest: return "bad-request";
    case Status::kTooLarge: return "too-large";
    case Status::kExecError: return "exec-error";
    case Status::kProtocolError: return "protocol-error";
    case Status::kDraining: return "draining";
  }
  return "unknown";
}

const char* to_string(Lifecycle lifecycle) {
  switch (lifecycle) {
    case kBooting: return "booting";
    case kWarming: return "warming";
    case kServing: return "serving";
    case kDraining: return "draining";
    case kStopped: return "stopped";
  }
  return "unknown";
}

namespace {

/// The one list of daemon counters: name, shared cell, snapshot field.
struct StatsField {
  const char* name;
  std::atomic<std::uint64_t> SharedStats::*shared;
  std::uint64_t DaemonStats::*plain;
};

constexpr StatsField kStatsFields[] = {
    {"requests", &SharedStats::requests, &DaemonStats::requests},
    {"vectors", &SharedStats::vectors, &DaemonStats::vectors},
    {"bad_request", &SharedStats::bad_request, &DaemonStats::bad_request},
    {"exec_errors", &SharedStats::exec_errors, &DaemonStats::exec_errors},
    {"reclaimed", &SharedStats::reclaimed, &DaemonStats::reclaimed},
    {"dropped", &SharedStats::dropped, &DaemonStats::dropped},
    {"protocol_errors", &SharedStats::protocol_errors,
     &DaemonStats::protocol_errors},
    {"evictions", &SharedStats::evictions, &DaemonStats::evictions},
    {"shed_expired", &SharedStats::shed_expired, &DaemonStats::shed_expired},
    {"credit_stalls", &SharedStats::credit_stalls,
     &DaemonStats::credit_stalls},
    {"drained", &SharedStats::drained, &DaemonStats::drained},
    {"drain_aborted", &SharedStats::drain_aborted,
     &DaemonStats::drain_aborted},
    {"drain_refused", &SharedStats::drain_refused,
     &DaemonStats::drain_refused},
};

}  // namespace

DaemonStats load_stats(const SharedStats& shared) {
  DaemonStats out;
  for (const StatsField& field : kStatsFields) {
    out.*field.plain = (shared.*field.shared).load(std::memory_order_relaxed);
  }
  return out;
}

std::string to_string(const DaemonStats& stats) {
  std::string out;
  for (const StatsField& field : kStatsFields) {
    if (!out.empty()) out += ' ';
    out += std::string(field.name) + '=' + std::to_string(stats.*field.plain);
  }
  return out;
}

namespace {

/// Field-wise page copy.  The seqlock word is the page's one atomic, which
/// leaves StatsPage without a trivial copy, so it moves by a relaxed load
/// and store; every other field is plain data.
void copy_page(const StatsPage& from, StatsPage& to) {
  static_assert(sizeof(StatsPageHeader) == 48 + sizeof(StatsTotals),
                "a new header field must be copied below");
  const StatsPageHeader& src = from.header;
  StatsPageHeader& dst = to.header;
  dst.magic = src.magic;
  dst.version = src.version;
  dst.pid = src.pid;
  dst.epoch = src.epoch;
  dst.seq.store(src.seq.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  dst.published_ns = src.published_ns;
  dst.series_count = src.series_count;
  dst.reserved = src.reserved;
  dst.totals = src.totals;
  std::memcpy(to.series, from.series, sizeof(from.series));
}

}  // namespace

bool stats_read(const StatsPage& shared, StatsPage& out, int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
    const std::uint64_t before =
        shared.header.seq.load(std::memory_order_acquire);
    if (before & 1) continue;  // publish in progress
    copy_page(shared, out);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after =
        shared.header.seq.load(std::memory_order_relaxed);
    if (before == after) return true;
  }
  return false;
}

std::string stats_shm_name_for(const std::string& endpoint) {
  return shm_name_for(endpoint) + ".stats";
}

std::uint64_t monotonic_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace whtlab::ipc
