#include "ipc/protocol.hpp"

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

/// Field-wise page copy through stats_load.  The seqlock word moves by a
/// relaxed load and store (the caller's own seq reads order it).
void copy_page(const StatsPage& from, StatsPage& to) {
  static_assert(sizeof(StatsPageHeader) == 48 + sizeof(StatsTotals),
                "a new header field must be copied below");
  static_assert(sizeof(StatsTotals) == 5 * sizeof(std::uint64_t),
                "a new totals field must be copied below");
  static_assert(sizeof(StatsSeries) == 8 + sizeof(StatsSeries::backend) +
                                           6 * sizeof(std::uint64_t),
                "a new series field must be copied below");
  const StatsPageHeader& src = from.header;
  StatsPageHeader& dst = to.header;
  dst.magic = stats_load(src.magic);
  dst.version = stats_load(src.version);
  dst.pid = stats_load(src.pid);
  dst.epoch = stats_load(src.epoch);
  dst.seq.store(src.seq.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  dst.published_ns = stats_load(src.published_ns);
  dst.series_count = stats_load(src.series_count);
  dst.reserved = stats_load(src.reserved);
  dst.totals.requests = stats_load(src.totals.requests);
  dst.totals.vectors = stats_load(src.totals.vectors);
  dst.totals.batches = stats_load(src.totals.batches);
  dst.totals.failures = stats_load(src.totals.failures);
  dst.totals.fallbacks = stats_load(src.totals.fallbacks);
  for (std::uint32_t i = 0; i < kStatsSeriesCapacity; ++i) {
    const StatsSeries& in = from.series[i];
    StatsSeries& out = to.series[i];
    out.n = stats_load(in.n);
    out.batch = stats_load(in.batch);
    for (std::size_t c = 0; c < sizeof(in.backend); ++c) {
      out.backend[c] = stats_load(in.backend[c]);
    }
    out.count = stats_load(in.count);
    out.min = stats_load(in.min);
    out.max = stats_load(in.max);
    out.mean = stats_load(in.mean);
    out.p50 = stats_load(in.p50);
    out.p99 = stats_load(in.p99);
  }
}

}  // namespace

bool stats_read(const StatsPage& shared, StatsPage& out, int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
    const std::uint64_t before =
        shared.header.seq.load(std::memory_order_acquire);
    if (before & 1) continue;  // publish in progress
    copy_page(shared, out);
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
