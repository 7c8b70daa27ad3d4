// whtd — the whtlab shared-memory serving daemon (src/ipc/daemon.hpp).
//
// Owns one process-wide wht::Engine and serves every connected client
// process through zero-copy shm rings:
//
//   whtd &                          # serve endpoint "whtlab"
//   whtd --endpoint lab --slots 8 --credits 5000
//   whtd --stats                    # periodic shared-counter lines
//   whtd --supervise --pid-file d.pid   # watchdog + rolling restarts
//
// Defaults come from DaemonOptions::from_env() (the WHTLAB_IPC_* knobs);
// flags override the environment.  Signals:
//
//   SIGTERM  graceful drain (--drain-ms budget): stop admitting — new
//            submissions answer the typed kDraining — finish in-flight
//            work, wait for clients to consume their answers, flush
//            wisdom, then exit.
//   SIGINT   immediate stop: in-flight work is answered, waiters resolve
//            to kDaemonGone, the segment is unlinked.
//   SIGHUP   (supervisor only) zero-downtime rolling restart: fork a warm
//            standby successor, drain the incumbent, hand the endpoint
//            over — reconnect-enabled clients cross it with zero failures.
//
// --supervise runs the serving daemon in a forked child and restarts it
// (capped backoff, budget that resets after --stable-ms of healthy
// serving) whenever it crashes, is SIGKILLed, or wedges — a wedge being a
// live pid whose segment heartbeat (ControlHeader::heartbeat_ns) has not
// advanced within --wedge-ms.  --pid-file always records the *serving*
// pid (atomically, tmp+rename), tracking the current child across
// restarts and handoffs, so kill scripts hit the daemon and never the
// watchdog.  The heavy lifting lives in src/ipc/supervisor.hpp.
#include <cstdio>
#include <exception>
#include <string>

#include "ipc/daemon.hpp"
#include "ipc/supervisor.hpp"
#include "util/cli.hpp"

namespace {

/// Environment first, flags on top — run again by every supervised child
/// (through SupervisorOptions::reload), so a rolling restart picks up
/// WHTLAB_IPC_* changes made since the supervisor booted.
whtlab::ipc::DaemonOptions options_from(const whtlab::util::Cli& cli) {
  whtlab::ipc::DaemonOptions options = whtlab::ipc::DaemonOptions::from_env();
  options.endpoint = cli.get("endpoint", options.endpoint);
  options.slots =
      static_cast<std::uint32_t>(cli.get_int("slots", options.slots));
  options.arena_doubles = static_cast<std::uint64_t>(cli.get_int(
      "arena-doubles", static_cast<std::int64_t>(options.arena_doubles)));
  options.credit_limit = static_cast<std::uint64_t>(cli.get_int(
      "credits", static_cast<std::int64_t>(options.credit_limit)));
  options.credit_window_ns =
      static_cast<std::uint64_t>(cli.get_int(
          "credit-window-ms",
          static_cast<std::int64_t>(options.credit_window_ns / 1000000ULL))) *
      1000000ULL;
  options.strike_limit = static_cast<std::uint32_t>(
      cli.get_int("strikes", static_cast<std::int64_t>(options.strike_limit)));
  options.timeout_ms = static_cast<std::uint64_t>(cli.get_int(
      "timeout-ms", static_cast<std::int64_t>(options.timeout_ms)));
  options.sweep_ms = static_cast<std::uint64_t>(
      cli.get_int("sweep-ms", static_cast<std::int64_t>(options.sweep_ms)));
  options.drain_ms = static_cast<std::uint64_t>(
      cli.get_int("drain-ms", static_cast<std::int64_t>(options.drain_ms)));
  options.engine.wisdom_file = cli.get("wisdom", options.engine.wisdom_file);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  whtlab::util::Cli cli;
  cli.add_flag("endpoint", "serving endpoint (segment /dev/shm/whtlab.<name>)");
  cli.add_flag("slots", "client slots (admission-control bound)");
  cli.add_flag("arena-doubles", "per-slot staging arena, in doubles");
  cli.add_flag("credits", "per-client work credits (vectors) per window (0 = off)");
  cli.add_flag("credit-window-ms", "credit bucket full-refill period, ms");
  cli.add_flag("strikes", "protocol strikes before slot eviction (0 = never evict)");
  cli.add_flag("timeout-ms", "published client wait deadline, ms");
  cli.add_flag("sweep-ms", "dead-client liveness sweep period, ms");
  cli.add_flag("drain-ms", "graceful-drain budget for SIGTERM/handoffs, ms");
  cli.add_flag("wisdom", "wisdom file for first-touch planning");
  cli.add_flag("pid-file", "write the serving pid here (current child under --supervise)");
  cli.add_flag("wedge-ms", "supervisor: heartbeat staleness that counts as wedged");
  cli.add_flag("max-restarts", "supervisor: give up after this many unstable restarts (0 = never)");
  cli.add_flag("stable-ms", "supervisor: healthy uptime that resets the restart budget");
  cli.add_flag("handoff-ready-ms", "supervisor: successor prewarm bound for SIGHUP handoffs");
  cli.add_flag("stats-interval-ms", "period of the --stats counter line (default 1000)");
  cli.add_bool("stats", "print shared counters periodically (see --stats-interval-ms)");
  cli.add_bool("prewarm", "rebuild wisdom-recorded transforms before serving");
  cli.add_bool("once-ready", "print READY on stdout once serving (for scripts)");
  cli.add_bool("supervise", "watchdogged child: restart on crash/wedge, SIGHUP rolling restart");
  if (!cli.parse(argc, argv)) return 2;

  whtlab::ipc::DaemonOptions options;
  try {
    options = options_from(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whtd: %s\n", e.what());
    return 2;
  }

  const std::int64_t stats_interval_ms = cli.get_int("stats-interval-ms", 1000);
  if (stats_interval_ms < 1) {
    std::fprintf(stderr, "whtd: --stats-interval-ms must be >= 1\n");
    return 2;
  }
  whtlab::ipc::ServeOptions serve_options;
  // Asking for an interval implies asking for the stats line.
  serve_options.stats = cli.has("stats") || cli.has("stats-interval-ms");
  serve_options.stats_interval_ms = stats_interval_ms;
  serve_options.prewarm = cli.has("prewarm");
  serve_options.once_ready = cli.has("once-ready");

  if (cli.has("supervise")) {
    whtlab::ipc::SupervisorOptions supervisor;
    supervisor.daemon = options;
    supervisor.child = serve_options;
    // Config/env re-read per spawned child: flags pin what they name, the
    // environment underneath may move between handoffs.
    supervisor.reload = [cli] { return options_from(cli); };
    supervisor.pid_file = cli.get("pid-file", "");
    supervisor.wedge_ms = cli.get_int("wedge-ms", 10000);
    supervisor.max_restarts = cli.get_int("max-restarts", 0);
    supervisor.stable_ms = static_cast<std::uint64_t>(
        cli.get_int("stable-ms", 60000));
    supervisor.handoff_ready_ms = static_cast<std::uint64_t>(
        cli.get_int("handoff-ready-ms", 30000));
    if (supervisor.wedge_ms < 1) {
      std::fprintf(stderr, "whtd: --wedge-ms must be >= 1\n");
      return 2;
    }
    return whtlab::ipc::run_supervisor(supervisor);
  }
  serve_options.pid_file = cli.get("pid-file", "");
  return whtlab::ipc::serve(options, serve_options);
}
