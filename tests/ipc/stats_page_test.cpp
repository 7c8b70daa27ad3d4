// The whtd telemetry stats page: a forked read-only observer racing a
// serving daemon, and a reader thread racing a publisher thread in one
// process (the case ThreadSanitizer can follow), must never see a torn
// snapshot.
//
// The page is seqlock-guarded (protocol.hpp): the daemon publishes whole
// snapshots between stats_write_begin/end, observers copy with
// stats_read().  The reader child here hammers snapshots while the parent
// daemon serves live traffic and publishes at an aggressive cadence, and
// asserts structural invariants that a torn read would break: magic and
// version intact, series table in bounds, NUL-terminated backend names,
// min <= max and p50 <= p99 within every populated series, and — with
// decay disabled — per-series counts and engine totals that only ever move
// forward.  Once the reader is done, the parent checks that the final page
// counts every request and vector it sent, batch included.
//
// Fork discipline (as in ipc_serve_test): the child is forked BEFORE the
// Daemon is constructed, while the process is single-threaded, and leaves
// through _exit so the forked gtest runtime never runs atexit hooks.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

std::string unique_endpoint(const char* tag) {
  return std::string("test-") + tag + "-" + std::to_string(::getpid());
}

/// The reader child's whole life.  Returns 0 on success; distinct codes
/// name the invariant that failed (they surface in the waitpid status).
int reader_main(const std::string& endpoint) {
  const std::string name = stats_shm_name_for(endpoint);
  // The daemon binds the page during construction; wait for it.
  for (int spin = 0; !Shm::exists(name); ++spin) {
    if (spin > 10000) return 30;  // daemon never appeared
    ::usleep(1000);
  }
  Shm shm;
  try {
    shm = Shm::open_readonly(name);
  } catch (...) {
    return 31;
  }
  if (shm.size() < sizeof(StatsPage)) return 32;
  const auto* shared = static_cast<const StatsPage*>(shm.data());

  static StatsPage page;  // ~18 KiB; keep the child's stack small
  std::map<std::tuple<std::int32_t, std::string, std::uint32_t>,
           std::uint64_t>
      last_count;
  std::uint64_t last_requests = 0;
  int consistent = 0;
  bool saw_traffic = false;
  for (int spin = 0; consistent < 200 || !saw_traffic; ++spin) {
    if (spin > 200000) return 33;  // never saw served traffic
    if (!stats_read(*shared, page)) continue;  // publish storm: retry
    ++consistent;
    const auto& h = page.header;
    if (h.magic != kStatsMagic) return 20;
    if (h.version != kStatsVersion) return 21;
    if (h.series_count > kStatsSeriesCapacity) return 22;
    if (h.totals.requests < last_requests) return 23;  // totals went backward
    last_requests = h.totals.requests;
    if (h.totals.requests > 0) saw_traffic = true;
    for (std::uint32_t i = 0; i < h.series_count; ++i) {
      const StatsSeries& s = page.series[i];
      if (s.batch > 1) return 24;
      if (::strnlen(s.backend, sizeof(s.backend)) >= sizeof(s.backend)) {
        return 25;  // unterminated name: torn string bytes
      }
      if (s.count == 0) continue;
      if (s.min > s.max) return 26;
      if (s.p50 > s.p99) return 27;
      // Decay is off: a series can only accumulate.
      auto& prev = last_count[{s.n, s.backend, s.batch}];
      if (s.count < prev) return 28;
      prev = s.count;
    }
  }
  return 0;
}

TEST(IpcStatsPage, ForkedObserverNeverSeesATornSnapshot) {
  const std::string endpoint = unique_endpoint("statspage");

  const pid_t reader = ::fork();
  ASSERT_GE(reader, 0);
  if (reader == 0) ::_exit(reader_main(endpoint));

  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 2;
  options.stats_publish_ms = 2;  // aggressive cadence: maximal seqlock churn
  options.engine.telemetry_decay_window = 0;  // counts must be monotone
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  const int n = 6;
  const std::size_t doubles = std::size_t{1} << n;
  int status = 0;
  std::uint64_t requests = 0;
  // Serve until the reader is satisfied (it needs 200 consistent snapshots
  // with traffic in them) — bounded by the reader's own spin cap.
  for (int r = 0;; ++r) {
    double* x = client.stage(n, 1);
    const auto input =
        util::random_vector(doubles, static_cast<std::uint64_t>(r) + 1);
    std::memcpy(x, input.data(), doubles * sizeof(double));
    ASSERT_EQ(client.transform(n, x, 1), Status::kOk);
    ++requests;
    const pid_t done = ::waitpid(reader, &status, WNOHANG);
    if (done == reader) break;
    ASSERT_LT(r, 2000000) << "reader child never finished";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "reader invariant failed (see reader_main for the code)";

  // One batch request on top of the singles: the page's totals must count
  // it as one request of `batch` vectors.
  constexpr std::size_t batch = 3;
  double* x = client.stage(n, batch);
  const auto input = util::random_vector(batch * doubles, 7);
  std::memcpy(x, input.data(), input.size() * sizeof(double));
  ASSERT_EQ(client.transform(n, x, batch), Status::kOk);
  const std::uint64_t answered = monotonic_ns();

  // The service thread publishes after it answered, so a page stamped
  // later than the answer's arrival already counts it.
  const Shm shm = Shm::open_readonly(stats_shm_name_for(endpoint));
  const auto* shared = static_cast<const StatsPage*>(shm.data());
  static StatsPage page;
  const std::uint64_t give_up = answered + 10000000000ULL;
  while (!stats_read(*shared, page) || page.header.published_ns <= answered) {
    ASSERT_LT(monotonic_ns(), give_up) << "no page published after the batch";
    ::usleep(1000);
  }
  EXPECT_EQ(page.header.totals.requests, requests + 1);
  EXPECT_EQ(page.header.totals.vectors, requests + batch);
}

/// Publishes snapshot `k` the way Daemon::publish_stats_page does: every
/// field between the seqlock edges through stats_store, each a function of
/// k alone, so a copy mixing two publishes cannot pass page_is_whole.
void publish(StatsPage& page, std::uint64_t k) {
  StatsPageHeader& h = page.header;
  stats_write_begin(h);
  stats_store(h.published_ns, k);
  stats_store(h.series_count, kStatsSeriesCapacity);
  stats_store(h.totals.requests, k);
  stats_store(h.totals.vectors, 2 * k);
  stats_store(h.totals.batches, 3 * k);
  stats_store(h.totals.failures, 4 * k);
  stats_store(h.totals.fallbacks, 5 * k);
  for (StatsSeries& s : page.series) {
    stats_store(s.n, static_cast<std::int32_t>(k));
    stats_store(s.batch, static_cast<std::uint32_t>(k & 1));
    for (std::size_t c = 0; c + 1 < sizeof(s.backend); ++c) {
      stats_store(s.backend[c], static_cast<char>('a' + (k + c) % 26));
    }
    stats_store(s.count, k);
    stats_store(s.min, k);
    stats_store(s.max, k + 1);
    stats_store(s.mean, static_cast<double>(k));
    stats_store(s.p50, static_cast<double>(k));
    stats_store(s.p99, static_cast<double>(k + 1));
  }
  stats_write_end(h);
}

/// True when every field of the copy belongs to the publish its
/// published_ns names.
bool page_is_whole(const StatsPage& page) {
  const StatsPageHeader& h = page.header;
  const std::uint64_t k = h.published_ns;
  if (h.series_count != kStatsSeriesCapacity || h.totals.requests != k ||
      h.totals.vectors != 2 * k || h.totals.batches != 3 * k ||
      h.totals.failures != 4 * k || h.totals.fallbacks != 5 * k) {
    return false;
  }
  for (const StatsSeries& s : page.series) {
    if (s.n != static_cast<std::int32_t>(k) || s.batch != (k & 1) ||
        s.count != k || s.min != k || s.max != k + 1 ||
        s.mean != static_cast<double>(k) || s.p50 != static_cast<double>(k) ||
        s.p99 != static_cast<double>(k + 1)) {
      return false;
    }
    for (std::size_t c = 0; c + 1 < sizeof(s.backend); ++c) {
      if (s.backend[c] != static_cast<char>('a' + (k + c) % 26)) return false;
    }
  }
  return true;
}

TEST(StatsSeqlock, ThreadedReaderNeverSeesATornPage) {
  constexpr std::uint64_t kPublishes = 2000;
  const auto shared = std::make_unique<StatsPage>();
  publish(*shared, 1);

  std::atomic<bool> done{false};
  std::thread publisher([&shared, &done] {
    for (std::uint64_t k = 2; k <= kPublishes; ++k) {
      publish(*shared, k);
      std::this_thread::yield();  // give the reader a window between publishes
    }
    done.store(true, std::memory_order_release);
  });

  const auto page = std::make_unique<StatsPage>();
  int torn = 0;
  int whole = 0;
  std::uint64_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (!stats_read(*shared, *page)) continue;  // publish storm: retry
    if (!page_is_whole(*page) || page->header.published_ns < last) {
      ++torn;
    } else {
      ++whole;
      last = page->header.published_ns;
    }
  }
  publisher.join();

  EXPECT_EQ(torn, 0);
  EXPECT_GT(whole, 0);
  ASSERT_TRUE(stats_read(*shared, *page));
  EXPECT_TRUE(page_is_whole(*page));
  EXPECT_EQ(page->header.published_ns, kPublishes);
}

}  // namespace
}  // namespace whtlab::ipc
