// End-to-end whtd protocol: Daemon + Client over a real shm segment.
//
// The headline guarantee is bit-exactness — every vector served through the
// daemon (singles and batches alike run on its service thread through the
// arbitrated execute_many) must equal the in-process Transform bit for bit,
// including with >= 4 concurrent client *processes* racing each other.
// Also here: admission control (typed kServerFull when the slot table is
// full) and typed client-side shape errors.  Per-client credit throttling
// is covered in overload_test.cpp.
//
// Fork discipline: client children are forked BEFORE the Daemon is
// constructed, while this process is still single-threaded; the children
// wait for the daemon to come up.  Children leave through _exit so the
// forked gtest runtime never runs atexit hooks.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "api/planner.hpp"
#include "ipc/client.hpp"
#include "ipc/daemon.hpp"
#include "ipc/protocol.hpp"
#include "util/rng.hpp"

namespace whtlab::ipc {
namespace {

std::string unique_endpoint(const char* tag) {
  return std::string("test-") + tag + "-" + std::to_string(::getpid());
}

DaemonOptions daemon_options(const std::string& endpoint,
                             std::uint32_t slots = 16) {
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = slots;
  return options;
}

/// One client process's workload: `requests` round trips of `count` packed
/// 2^n vectors, each checked bit-exact against the in-process reference.
/// Returns 0 on success (the child's exit code).
int client_workload(const std::string& endpoint, int n, std::size_t count,
                    int requests, std::uint64_t seed) {
  if (!Client::wait_for_daemon(endpoint, 10000)) return 10;
  try {
    auto client = Client::connect({.endpoint = endpoint});
    const auto reference = api::Planner().plan(n);
    const std::size_t doubles = count << n;
    for (int r = 0; r < requests; ++r) {
      double* x = client.stage(n, count);
      const auto input = util::random_vector(
          doubles, seed + static_cast<std::uint64_t>(r));
      std::memcpy(x, input.data(), doubles * sizeof(double));
      if (client.transform(n, x, count) != Status::kOk) return 11;
      std::vector<double> expected = input;
      for (std::size_t v = 0; v < count; ++v) {
        reference.execute(expected.data() + (v << n));
      }
      if (std::memcmp(x, expected.data(), doubles * sizeof(double)) != 0) {
        return 12;  // NOT bit-exact
      }
    }
  } catch (...) {
    return 13;
  }
  return 0;
}

TEST(IpcServe, SingleClientBitExactInProcess) {
  const std::string endpoint = unique_endpoint("serve1");
  Daemon daemon(daemon_options(endpoint, 2));
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  const auto reference = api::Planner().plan(8);
  for (int r = 0; r < 6; ++r) {
    double* x = client.stage(8, 3);
    const auto input = util::random_vector(3 << 8, 42 + r);
    std::memcpy(x, input.data(), input.size() * sizeof(double));
    ASSERT_EQ(client.transform(8, x, 3), Status::kOk);
    std::vector<double> expected = input;
    for (int v = 0; v < 3; ++v) reference.execute(expected.data() + (v << 8));
    EXPECT_EQ(std::memcmp(x, expected.data(), input.size() * sizeof(double)),
              0)
        << "round " << r << " not bit-exact";
  }
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.vectors, 18u);
  daemon.stop();
}

TEST(IpcServe, FourForkedClientsStayBitExact) {
  const std::string endpoint = unique_endpoint("serve4");
  constexpr int kClients = 5;

  // Fork first (no threads exist yet), then bring the daemon up.
  std::vector<pid_t> children;
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Mixed shapes across children: singles and packed batches.
      const int n = 6 + c % 3;
      const std::size_t count = (c % 2 == 0) ? 1 : 4;
      ::_exit(client_workload(endpoint, n, count, 12,
                              1000 * static_cast<std::uint64_t>(c + 1)));
    }
    children.push_back(pid);
  }

  Daemon daemon(daemon_options(endpoint, kClients + 1));
  daemon.start();

  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "client " << pid << " failed";
  }
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * 12));
  // One execution path: every request ran directly on the service thread,
  // none through the Engine's submit() coalescer.
  const auto engine = daemon.engine().stats();
  EXPECT_EQ(engine.submitted, 0u);
  EXPECT_EQ(engine.singles + engine.batches,
            static_cast<std::uint64_t>(kClients * 12));
  daemon.stop();
}

TEST(IpcServe, AdmissionControlRejectsWithServerFull) {
  const std::string endpoint = unique_endpoint("admission");
  Daemon daemon(daemon_options(endpoint, 1));
  daemon.start();

  auto first = Client::connect({.endpoint = endpoint});
  try {
    auto second = Client::connect({.endpoint = endpoint});
    FAIL() << "second connect on a 1-slot daemon must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kServerFull);
  }
  daemon.stop();
}

TEST(IpcServe, TypedShapeErrors) {
  const std::string endpoint = unique_endpoint("shapes");
  DaemonOptions options;
  options.endpoint = endpoint;
  options.slots = 1;
  options.arena_doubles = 1 << 10;
  Daemon daemon(options);
  daemon.start();

  auto client = Client::connect({.endpoint = endpoint});
  try {
    client.stage(12);  // 4096 doubles can never fit a 1024-double arena
    FAIL() << "oversized stage must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTooLarge);
  }
  double* x = client.stage(4);
  Client::Ticket ticket;
  EXPECT_EQ(client.submit(0, x, 1, ticket), Status::kBadRequest);
  EXPECT_EQ(client.submit(31, x, 1, ticket), Status::kBadRequest);
  EXPECT_EQ(client.transform(4, x), Status::kOk);  // slot still healthy
  daemon.stop();
}

TEST(IpcServe, SecondDaemonOnLiveEndpointRefused) {
  const std::string endpoint = unique_endpoint("twodaemons");
  Daemon daemon(daemon_options(endpoint));
  daemon.start();
  try {
    Daemon usurper(daemon_options(endpoint));
    FAIL() << "a live endpoint must not be taken over";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kServerFull);
  }
  daemon.stop();
}

}  // namespace
}  // namespace whtlab::ipc
