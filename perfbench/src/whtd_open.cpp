// whtd_open: an ipc::Daemon with default DaemonOptions in a forked child,
// and this process as the load generator with two ipc::Client connections
// sending a seeded open-loop Poisson stream: single n=10 vectors (the
// daemon's submit() detour) on one connection, 16 x n=8 batches (direct
// execute_many) on the other.  Both share the daemon's service thread.
//
// The nominal phase runs at a fixed rate below the knee and gives the
// latency percentiles and the goodput.  After an idle gap, a saturation
// step keeps a full request ring in flight on both connections and records
// the daemon's throughput.  Then the ladder offers a fixed sequence of rates,
// each after an idle gap, and finds the highest one whose single-vector p99
// meets the limit without a growing backlog (sla_rps).  Also the ipc-layer
// probe.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/futex.hpp"
#include "ipc/protocol.hpp"
#include "ipc/shm.hpp"
#include "loadgen.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace ipc = whtlab::ipc;

/// Offered load, requests/s over both connections.  The 80/20 split of
/// singles and batches is a fixed choice, not measured traffic: enough
/// batches that they compete for the service thread, and singles the bulk.
constexpr double kNominalRate = 24000.0;
constexpr double kBatchShare = 0.2;
/// The offered-rate ladder.  The search starts at kLadderStart and walks up
/// while steps pass, or down until one passes, so a run usually pays for
/// two steps: the knee's two sides.
constexpr double kLadder[] = {24000, 48000, 96000, 144000, 192000, 256000, 320000};
constexpr std::size_t kLadderStart = 3;
constexpr double kStepSeconds = 1.5;  ///< a ladder step, and the saturation step
/// Idle time before the saturation step and each ladder step, so that each
/// starts from a drained daemon whatever ran before it.
constexpr auto kIdleGap = std::chrono::milliseconds(200);
/// The latency limit on single-vector p99 that the ladder applies.
constexpr double kSingleP99LimitUs = 2000.0;

struct Stream {
  int n;
  std::size_t count;
  const char* name;
};
constexpr Stream kStreams[] = {{10, 1, "single"}, {8, 16, "batch"}};
constexpr std::size_t kInputs = 4;
/// Staged regions per connection: as many requests as the slot's request
/// ring holds, the most one connection can have in flight.
constexpr std::size_t kRegions = ipc::kRingDepth;
constexpr std::size_t kSamplesPerStream = 64;

/// The daemon child.  Forked while this process is single-threaded; the
/// life pipe's EOF (close here, or this process dying) stops it.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& endpoint) {
    int life[2];
    if (pipe(life) != 0) throw std::runtime_error("whtd_open: pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("whtd_open: fork failed");
    if (pid_ == 0) {
      close(life[1]);
      int code = 0;
      try {
        ipc::DaemonOptions options;
        options.endpoint = endpoint;
        ipc::Daemon daemon(options);
        daemon.start();
        char byte;
        while (read(life[0], &byte, 1) < 0 && errno == EINTR) {
        }
        daemon.stop();
      } catch (...) {
        code = 1;
      }
      _exit(code);
    }
    close(life[0]);
    life_fd_ = life[1];
  }
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Stops the daemon and reaps it; false when it did not exit cleanly.
  bool stop() {
    if (pid_ <= 0) return true;
    close(life_fd_);
    int status = 0;
    const std::uint64_t give_up = now_ns() + 10'000'000'000ULL;
    pid_t reaped = 0;
    while ((reaped = waitpid(pid_, &status, WNOHANG)) == 0 && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const bool clean = reaped == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (reaped == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = 0;
    return clean;
  }

 private:
  pid_t pid_ = 0;
  int life_fd_ = -1;
};

/// One connection with its staged regions and its inputs.
struct Connection {
  const Stream* stream = nullptr;
  std::unique_ptr<ipc::Client> client;
  /// The slot's response ring in a read-only mapping of the segment: the
  /// generator polls it (and parks on its futex word) so that it never
  /// blocks inside Client::wait() while a send is due.
  const ipc::ResponseRing* responses = nullptr;
  std::vector<double*> regions;
  std::vector<std::vector<double>> pool;
  std::vector<std::pair<std::size_t, std::vector<double>>> samples;
};

/// Everything set-up builds.
struct Setup {
  std::unique_ptr<DaemonProcess> daemon;
  std::string endpoint;
  ipc::Shm segment;  ///< read-only view of the serving segment
  Connection connections[2];
  double start_s = 0.0;        ///< fork to a daemon that answers
  double connect_ms = 0.0;     ///< mean Client::connect time
  double first_touch_s = 0.0;  ///< the first requests of both shapes
  double setup_s = 0.0;

  ~Setup() {
    for (Connection& c : connections) c.client.reset();  // before the daemon
  }
};

std::unique_ptr<Setup> set_up(const std::string& endpoint, std::uint64_t seed,
                              Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  s->endpoint = endpoint;
  for (std::size_t c = 0; c < 2; ++c) {
    Connection& conn = s->connections[c];
    conn.stream = &kStreams[c];
    for (std::size_t i = 0; i < kInputs; ++i) {
      conn.pool.push_back(seeded_vector(conn.stream->count << conn.stream->n, seed,
                                        3000 + c * kInputs + i));
    }
  }
  const std::uint64_t t0 = now_ns();
  {
    Tracer::Scope span(tracer, tracer != nullptr ? tracer->intern("daemon.start") : 0);
    s->daemon = std::make_unique<DaemonProcess>(endpoint);
    if (!ipc::Client::wait_for_daemon(endpoint, 20000)) {
      throw std::runtime_error("whtd_open: daemon did not come up");
    }
  }
  s->start_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const auto stage_id = tracer != nullptr ? tracer->intern("ipc.stage") : 0;
  const auto connect_id = tracer != nullptr ? tracer->intern("ipc.connect") : 0;
  const auto first_id = tracer != nullptr ? tracer->intern("ipc.first_touch") : 0;
  double connect_ns = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    Connection& conn = s->connections[c];
    const std::uint64_t c0 = now_ns();
    {
      Tracer::Scope span(tracer, connect_id);
      conn.client = std::make_unique<ipc::Client>(ipc::Client::connect({.endpoint = endpoint}));
    }
    connect_ns += static_cast<double>(now_ns() - c0);
    for (std::size_t r = 0; r < kRegions; ++r) {
      Tracer::Scope span(tracer, stage_id);
      conn.regions.push_back(conn.client->stage(conn.stream->n, conn.stream->count));
    }
  }
  s->connect_ms = connect_ns / 2.0 * 1e-6;
  s->segment = ipc::Shm::open_readonly(ipc::shm_name_for(endpoint));
  const auto* header = static_cast<const ipc::ControlHeader*>(s->segment.data());
  const ipc::Layout layout{header->slot_count, header->arena_doubles};
  for (Connection& conn : s->connections) {
    conn.responses = &layout.slot(s->segment.data(),
                                  static_cast<std::uint32_t>(conn.client->slot_index()))
                          ->responses;
  }
  // First touch of both shapes in the daemon's Engine.
  const std::uint64_t f0 = now_ns();
  {
    Tracer::Scope span(tracer, first_id);
    for (Connection& conn : s->connections) {
      for (int r = 0; r < 3; ++r) {
        std::memcpy(conn.regions[0], conn.pool[0].data(),
                    conn.pool[0].size() * sizeof(double));
        if (conn.client->transform(conn.stream->n, conn.regions[0],
                                   conn.stream->count) != ipc::Status::kOk) {
          throw std::runtime_error("whtd_open: warm-up request failed");
        }
      }
    }
  }
  const std::uint64_t done = now_ns();
  s->first_touch_s = static_cast<double>(done - f0) * 1e-9;
  s->setup_s = static_cast<double>(done - t0) * 1e-9;
  return s;
}

/// What one open-loop window measured.  Its phase is sliced by completion
/// time (kSliceSeconds), so the percentiles and rates reported are medians
/// over slices: a stall of the shared host decides the slices it lands in,
/// while a queue that builds at the offered rate shows in every slice.
struct Window {
  Phase phase;
  LatencyRecorder lag_us;
  std::uint64_t backlog_max = 0;
  bool backlog_grew = false;
};

/// 50 ms holds about 1200 requests at the nominal rate, the fewest with
/// ten beyond the p99.  Short slices let the median over slices pass over
/// the host's sparse millisecond stalls, which reach only some slices;
/// every request, stalled or not, is in p99_us.whole_phase.
constexpr double kSliceSeconds = 0.05;

/// Open loop on both connections at `rate` req/s for `seconds`.
void open_loop(Setup& s, double rate, double seconds, std::uint64_t seed,
               Window& w, Tracer* tracer, bool keep_samples) {
  struct PerConn {
    std::vector<std::uint64_t> intended;
    std::vector<std::uint64_t> completed;
    Phase phase;
    LatencyRecorder lag_us;
  };
  PerConn per[2];
  for (std::size_t c = 0; c < 2; ++c) {
    const double share = c == 0 ? 1.0 - kBatchShare : kBatchShare;
    per[c].intended = poisson_schedule(rate * share, seconds, mix(seed, 10 + c));
    per[c].completed.assign(per[c].intended.size(), kNeverCompleted);
  }
  const auto submit_id = tracer != nullptr ? tracer->intern("ipc.submit") : 0;
  const auto wait_id = tracer != nullptr ? tracer->intern("ipc.wait") : 0;
  const std::uint64_t start = now_ns() + 2'000'000;  // both threads ready
  w.phase.usage_before = self_usage();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = s.connections[c];
        PerConn& p = per[c];
        const Stream& st = *conn.stream;
        const std::size_t doubles = st.count << st.n;
        whtlab::util::Rng rng(mix(seed, 20 + c));
        struct Inflight {
          ipc::Client::Ticket ticket;
          std::size_t index;
          std::size_t region;
          std::size_t input;
        };
        std::deque<Inflight> inflight;
        std::vector<std::size_t> free_regions;
        for (std::size_t r = 0; r < kRegions; ++r) free_regions.push_back(r);
        std::size_t next = 0;
        const std::size_t total = p.intended.size();
        auto finish_oldest = [&] {
          const Inflight f = inflight.front();
          inflight.pop_front();
          ipc::Status status;
          {
            Tracer::Scope span(tracer, wait_id, f.index);
            status = conn.client->wait(f.ticket);
          }
          const std::uint64_t done = now_ns();
          if (status == ipc::Status::kOk) {
            p.completed[f.index] = done;
            p.phase.record(static_cast<double>(done - (start + p.intended[f.index])) * 1e-3,
                           st.count > 1, static_cast<double>(doubles),
                           static_cast<std::size_t>(static_cast<double>(done - start) * 1e-9 /
                                                    kSliceSeconds));
            if (keep_samples && conn.samples.size() < kSamplesPerStream &&
                rng.below(32) == 0) {
              const double* out = conn.regions[f.region];
              conn.samples.emplace_back(f.input, std::vector<double>(out, out + doubles));
            }
          } else {
            ++p.phase.failed;
          }
          free_regions.push_back(f.region);
        };
        // Precise sleeps: the default 50 us timer slack would show up as
        // generator lag.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        while (next < total || !inflight.empty()) {
          const std::uint64_t now = now_ns();
          const std::uint64_t due = next < total ? start + p.intended[next] : 0;
          if (next < total && now >= due && !free_regions.empty()) {
            const std::size_t region = free_regions.back();
            free_regions.pop_back();
            const std::size_t input = rng.below(kInputs);
            std::memcpy(conn.regions[region], conn.pool[input].data(),
                        doubles * sizeof(double));
            ++p.phase.attempted;
            ipc::Client::Ticket ticket;
            ipc::Status status;
            p.lag_us.add(static_cast<double>(now_ns() - due) * 1e-3);
            {
              Tracer::Scope span(tracer, submit_id, next);
              status = conn.client->submit(st.n, conn.regions[region], st.count, ticket);
            }
            if (status == ipc::Status::kOk) {
              inflight.push_back({ticket, next, region, input});
            } else {
              ++p.phase.failed;
              free_regions.push_back(region);
            }
            ++next;
            continue;
          }
          if (inflight.empty()) {
            // Idle until the next send is due: a timed park on the ring's
            // word (no answer can come), not a spin that takes a core from
            // the daemon.
            const std::uint32_t seen = conn.responses->tail.load(std::memory_order_acquire);
            ipc::futex_wait_changed(conn.responses->tail, seen,
                                    static_cast<std::int64_t>(due - now));
            continue;
          }
          // Answers already drained into the client, or waiting in the ring:
          // the oldest is (in the usual FIFO case) done, so wait() returns
          // at once.  With every region busy the backlog forces a wait.
          const bool answered = inflight.size() > conn.client->inflight() ||
                                !conn.responses->empty();
          if (answered || (next < total && now >= due)) {
            finish_oldest();
            continue;
          }
          const std::uint32_t seen = conn.responses->tail.load(std::memory_order_acquire);
          if (seen == conn.responses->head.load(std::memory_order_acquire)) {
            const std::int64_t budget =
                next < total ? static_cast<std::int64_t>(due - now) : 1'000'000;
            ipc::futex_wait_changed(conn.responses->tail, seen, budget);
          }
        }
      });
    }
  }
  const std::uint64_t end = now_ns();
  w.phase.usage_after = self_usage();
  std::vector<std::uint64_t> intended, completed;
  for (PerConn& p : per) {
    w.phase.merge(p.phase);
    w.lag_us.merge(p.lag_us);
    intended.insert(intended.end(), p.intended.begin(), p.intended.end());
    completed.insert(completed.end(), p.completed.begin(), p.completed.end());
  }
  // Merge the two schedules in intended order, keeping the pairing.
  std::vector<std::size_t> order(intended.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return intended[a] < intended[b]; });
  std::vector<std::uint64_t> in_sorted, done_sorted;
  for (const std::size_t i : order) {
    in_sorted.push_back(intended[i]);
    done_sorted.push_back(completed[i] == kNeverCompleted ? kNeverCompleted
                                                           : completed[i] - start);
  }
  w.phase.wall_s = static_cast<double>(end - start) * 1e-9;
  w.phase.set_wall_slices(kSliceSeconds);
  const auto series = backlog_series(in_sorted, done_sorted);
  for (const std::uint64_t b : series) w.backlog_max = std::max(w.backlog_max, b);
  w.backlog_grew = backlog_grows(series);
}

/// Every staged region of both connections in flight for `seconds`: each
/// answer is recorded and its region sent again at once.  The completions
/// per second are the daemon's throughput under that load, whatever rate
/// an open loop would offer; latencies are from each send.
Phase saturate(Setup& s, double seconds, std::uint64_t seed) {
  Phase per[2];
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = s.connections[c];
        Phase& p = per[c];
        const Stream& st = *conn.stream;
        const std::size_t doubles = st.count << st.n;
        whtlab::util::Rng rng(mix(seed, 30 + c));
        struct Sent {
          ipc::Client::Ticket ticket;
          std::size_t region;
          std::uint64_t at;
        };
        std::deque<Sent> inflight;
        auto send = [&](std::size_t region) {
          std::memcpy(conn.regions[region], conn.pool[rng.below(kInputs)].data(),
                      doubles * sizeof(double));
          ++p.attempted;
          ipc::Client::Ticket ticket;
          const std::uint64_t at = now_ns();
          if (conn.client->submit(st.n, conn.regions[region], st.count, ticket) ==
              ipc::Status::kOk) {
            inflight.push_back({ticket, region, at});
          } else {
            ++p.failed;
          }
        };
        for (std::size_t r = 0; r < kRegions; ++r) send(r);
        while (!inflight.empty()) {
          const Sent f = inflight.front();
          inflight.pop_front();
          const ipc::Status status = conn.client->wait(f.ticket);
          const std::uint64_t done = now_ns();
          if (status == ipc::Status::kOk) {
            p.record(static_cast<double>(done - f.at) * 1e-3, st.count > 1,
                     static_cast<double>(doubles),
                     static_cast<std::size_t>(static_cast<double>(done - start) * 1e-9 /
                                              kSliceSeconds));
          } else {
            ++p.failed;
          }
          if (done < end) send(f.region);
        }
      });
    }
  }
  Phase phase;
  for (const Phase& p : per) phase.merge(p);
  phase.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  phase.set_wall_slices(kSliceSeconds);
  return phase;
}

/// Closed loop, one request at a time per stream: the client calls
/// (stage, submit, wait) each timed, and the round trip minus in-process
/// Engine time for the same shape.
void ipc_overheads(Setup& s, Tracer& tracer, Result& result) {
  wht::Engine engine;
  for (std::size_t c = 0; c < 2; ++c) {
    Connection& conn = s.connections[c];
    const Stream& st = *conn.stream;
    const std::size_t doubles = st.count << st.n;
    std::vector<double> local(conn.pool[0]);
    LatencyRecorder round_trip, in_process, stage_ns, submit_ns, wait_us;
    const std::string name(st.name);
    const auto rt_id = tracer.intern("ipc.round_trip." + name);
    const auto stage_id = tracer.intern("ipc.stage." + name);
    const auto submit_id = tracer.intern("ipc.submit." + name);
    const auto wait_id = tracer.intern("ipc.wait." + name);
    const auto ip_id = tracer.intern("engine.in_process." + name);
    for (int r = 0; r < 600; ++r) {
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(&tracer, rt_id, static_cast<std::uint64_t>(r));
        double* x = nullptr;
        {
          Tracer::Scope inner(&tracer, stage_id);
          x = conn.client->stage(st.n, st.count);
        }
        const std::uint64_t t1 = now_ns();
        std::memcpy(x, conn.pool[0].data(), doubles * sizeof(double));
        ipc::Client::Ticket ticket;
        const std::uint64_t t2 = now_ns();
        ipc::Status status;
        {
          Tracer::Scope inner(&tracer, submit_id);
          status = conn.client->submit(st.n, x, st.count, ticket);
        }
        const std::uint64_t t3 = now_ns();
        if (status == ipc::Status::kOk) {
          Tracer::Scope inner(&tracer, wait_id);
          status = conn.client->wait(ticket);
        }
        if (status != ipc::Status::kOk) ++result.failed;
        stage_ns.add(static_cast<double>(t1 - t0));
        submit_ns.add(static_cast<double>(t3 - t2));
        wait_us.add(static_cast<double>(now_ns() - t3) * 1e-3);
      }
      round_trip.add(static_cast<double>(now_ns() - t0) * 1e-3);
      std::memcpy(local.data(), conn.pool[0].data(), doubles * sizeof(double));
      const std::uint64_t t4 = now_ns();
      {
        Tracer::Scope span(&tracer, ip_id);
        if (st.count > 1) {
          engine.execute_many(st.n, local.data(), st.count);
        } else {
          engine.execute(st.n, local.data());
        }
      }
      if (r > 0) in_process.add(static_cast<double>(now_ns() - t4) * 1e-3);
    }
    result.attempted += 600;
    result.set(result.layer, "ipc." + name + ".overhead_us",
               round_trip.median() - in_process.median(), "us", round_trip.count());
    if (c == 0) {
      result.set(result.layer, "ipc.client.stage_ns", stage_ns.median(), "ns", stage_ns.count());
      result.set(result.layer, "ipc.client.submit_ns", submit_ns.median(), "ns",
                 submit_ns.count());
      result.set(result.layer, "ipc.client.wait_us", wait_us.median(), "us", wait_us.count());
    }
  }
}

/// daemon.* counters: one stats-page scrape and the serving segment's
/// shared counters.
void scrape_daemon(Setup& s, Result& result) {
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // > publish period
  const ipc::Shm page_shm = ipc::Shm::open_readonly(ipc::stats_shm_name_for(s.endpoint));
  ipc::StatsPage page{};
  if (page_shm.size() < sizeof(ipc::StatsPage) ||
      !ipc::stats_read(*static_cast<const ipc::StatsPage*>(page_shm.data()), page)) {
    throw std::runtime_error("whtd_open: stats page unreadable");
  }
  const auto& t = page.header.totals;
  result.set(result.layer, "daemon.vectors_per_batch",
             t.batches > 0 ? static_cast<double>(t.vectors) / static_cast<double>(t.batches) : 0.0,
             "vectors", t.batches);
  const auto d = s.connections[0].client->stats();
  result.set(result.layer, "daemon.shed", static_cast<double>(d.shed_expired), "count");
  result.set(result.layer, "daemon.throttled", static_cast<double>(d.throttled), "count");
  result.set(result.layer, "daemon.credit_stalls", static_cast<double>(d.credit_stalls), "count");
  result.set(result.layer, "daemon.protocol_errors", static_cast<double>(d.protocol_errors),
             "count");
}

/// The ipc-layer metrics of one traced nominal window.
void set_ipc_layer(Setup& s, const Window& untraced, const ProcUsage& d0,
                   const ProcUsage& d1, Tracer& tracer, Result& result) {
  result.set(result.layer, "daemon.start_s", s.start_s, "s");
  result.set(result.layer, "ipc.connect_ms", s.connect_ms, "ms", 2);
  const double reqs = static_cast<double>(std::max<std::uint64_t>(untraced.phase.completed, 1));
  result.set(result.layer, "daemon.cpu_us_per_req", (d1.cpu_s - d0.cpu_s) * 1e6 / reqs,
             "us/req", untraced.phase.completed);
  result.set(result.layer, "daemon.ctxsw_per_req",
             static_cast<double>((d1.voluntary + d1.involuntary) -
                                 (d0.voluntary + d0.involuntary)) / reqs,
             "count/req", untraced.phase.completed);
  result.set(result.layer, "loadgen.lag_p99_us", untraced.lag_us.quantile(0.99), "us",
             untraced.lag_us.count());
  result.set(result.layer, "loadgen.backlog_max", static_cast<double>(untraced.backlog_max),
             "count", untraced.phase.completed);
  ipc_overheads(s, tracer, result);
  scrape_daemon(s, result);
}

void check_samples(Setup& s, Result& result) {
  Gate gate(result);
  for (Connection& conn : s.connections) {
    for (const auto& [input, output] : conn.samples) {
      gate.check(conn.stream->n, conn.pool[input].data(), output.data(), conn.stream->count);
    }
  }
}

std::string endpoint_name(int k) {
  return "perfbench-" + std::to_string(static_cast<long>(getpid())) + "-" + std::to_string(k);
}

}  // namespace

void run_whtd_open(const Options& options, Result& result, Tracer* tracer) {
  std::unique_ptr<Setup> setup;
  std::vector<double> setups;
  for (int i = 0; i < (tracer != nullptr ? 1 : kCheapSetups); ++i) {
    setup.reset();
    setup = set_up(endpoint_name(i), options.seed, tracer);
    setups.push_back(setup->setup_s);
  }
  Setup& s = *setup;
  // The nominal phase is the timed phase: every gated metric comes from it.
  // The saturation step and the ladder run after it, outside --seconds.
  const double nominal_s = tracer != nullptr ? options.seconds / 2 : options.seconds;

  Window untraced;
  const ProcUsage d0 = proc_usage(s.daemon->pid());
  open_loop(s, kNominalRate, nominal_s,
            mix(options.seed, 1), untraced, nullptr, true);
  const ProcUsage d1 = proc_usage(s.daemon->pid());

  if (tracer == nullptr) {
    std::this_thread::sleep_for(kIdleGap);
    const Phase saturated = saturate(s, kStepSeconds, mix(options.seed, 3));
    // The daemon's peak RSS with full rings on both connections: a fixed
    // state, unlike the nominal phase's bursts or the ladder's path.
    const double rss_mib = proc_usage(s.daemon->pid()).hwm_mib;
    result.attempted += saturated.attempted;
    result.failed += saturated.failed;

    // The ladder: sla_rps is the highest rate that meets the limit.
    double sla_rps = 0.0;
    auto run_step = [&](std::size_t k) {
      std::this_thread::sleep_for(kIdleGap);
      Window step;
      open_loop(s, kLadder[k], kStepSeconds, mix(options.seed, 100 + k), step, nullptr, true);
      result.attempted += step.phase.attempted;
      result.failed += step.phase.failed;
      const double p99 = step.phase.sliced_quantile(0.99, true);
      const double done_per_s = step.phase.req_per_s();
      const bool pass = step.phase.failed == 0 && !step.backlog_grew &&
                        p99 <= kSingleP99LimitUs;
      std::fprintf(stderr,
                   "  ladder %6.0f req/s: done %8.0f/s, single p99 %8.1f us, lag p99 %8.1f us, "
                   "backlog max %llu%s -> %s\n",
                   kLadder[k], done_per_s, p99, step.lag_us.quantile(0.99),
                   static_cast<unsigned long long>(step.backlog_max),
                   step.backlog_grew ? " (grows)" : "", pass ? "pass" : "miss");
      const std::string label = "ladder." + std::to_string(static_cast<int>(kLadder[k]));
      result.set(result.info, label + ".done_per_s", done_per_s, "req/s", step.phase.completed);
      result.set(result.info, label + ".single_p99_us", p99, "us", step.phase.completed);
      if (pass) sla_rps = std::max(sla_rps, kLadder[k]);
      return pass;
    };
    std::size_t k = kLadderStart;
    if (run_step(k)) {
      while (k + 1 < std::size(kLadder) && run_step(++k)) {
      }
    } else {
      while (k > 0 && !run_step(--k)) {
      }
    }
    result.set_phase_metrics(untraced.phase, setups);
    result.set(result.info, "saturation.req_per_s", saturated.req_per_s(), "req/s",
               saturated.completed);
    result.set(result.info, "saturation.melem_per_s", saturated.melem_per_s(), "Melem/s",
               saturated.completed);
    result.set(result.info, "saturation.single_share",
               static_cast<double>(saturated.whole(Phase::Kind::kSingle).count()) /
                   static_cast<double>(std::max<std::uint64_t>(saturated.completed, 1)),
               "ratio", saturated.completed);
    result.set(result.info, "p99_us.whole_phase",
               untraced.phase.whole(Phase::Kind::kAll).quantile(0.99), "us",
               untraced.phase.completed);
    result.set(result.e2e, "rss_mb", rss_mib, "MiB");
    result.set(result.info, "sla_rps", sla_rps, "req/s");
    result.set(result.info, "loadgen.lag_p99_us", untraced.lag_us.quantile(0.99), "us",
               untraced.lag_us.count());
  } else {
    Window traced;
    open_loop(s, kNominalRate, nominal_s, mix(options.seed, 2), traced, tracer, true);
    result.attempted += untraced.phase.attempted + traced.phase.attempted;
    result.failed += untraced.phase.failed + traced.phase.failed;
    set_trace_overhead(result, untraced.phase, traced.phase);
    set_proc_metrics(result, untraced.phase);
    result.set(result.layer, "engine.first_touch_s", s.first_touch_s, "s");
    set_ipc_layer(s, untraced, d0, d1, *tracer, result);
  }
  check_samples(s, result);
  for (Connection& c : s.connections) c.client.reset();
  if (!s.daemon->stop()) ++result.failed;
}

void probe_ipc(Tracer& tracer, Result& result, std::uint64_t seed) {
  auto s = set_up(endpoint_name(9), seed, &tracer);
  Window untraced, traced;
  const ProcUsage d0 = proc_usage(s->daemon->pid());
  open_loop(*s, kNominalRate, 1.0, mix(seed, 1), untraced, nullptr, true);
  const ProcUsage d1 = proc_usage(s->daemon->pid());
  open_loop(*s, kNominalRate, 1.0, mix(seed, 2), traced, &tracer, true);
  result.attempted += untraced.phase.attempted + traced.phase.attempted;
  result.failed += untraced.phase.failed + traced.phase.failed;
  set_ipc_layer(*s, untraced, d0, d1, tracer, result);
  check_samples(*s, result);
  for (Connection& c : s->connections) c.client.reset();
  if (!s->daemon->stop()) ++result.failed;
}

}  // namespace perfbench
