// DaemonOptions::from_env: every WHTLAB_IPC_* knob whtd reads is applied,
// and a value out of its range or not an integer is refused — never
// clamped — with a std::invalid_argument that names the knob, so a daemon
// started with a typo fails loudly instead of serving misconfigured.
//
// The fixture clears every knob before each test and restores the
// process's original values afterwards.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ipc/daemon.hpp"

namespace whtlab::ipc {
namespace {

/// One integer knob: a valid value and how it shows up in the options, plus
/// one value outside its accepted range.
struct IntKnob {
  const char* name;
  const char* value;
  std::function<bool(const DaemonOptions&)> applied;
  const char* out_of_range;
};

const std::vector<IntKnob>& int_knobs() {
  static const std::vector<IntKnob> knobs = {
      {"WHTLAB_IPC_SLOTS", "7",
       [](const DaemonOptions& o) { return o.slots == 7; }, "0"},
      {"WHTLAB_IPC_ARENA_BYTES", "8192",
       [](const DaemonOptions& o) { return o.arena_doubles == 1024; }, "256"},
      {"WHTLAB_IPC_TIMEOUT_MS", "1234",
       [](const DaemonOptions& o) { return o.timeout_ms == 1234; }, "0"},
      {"WHTLAB_IPC_SWEEP_MS", "17",
       [](const DaemonOptions& o) { return o.sweep_ms == 17; }, "60001"},
      {"WHTLAB_IPC_CREDITS", "64",
       [](const DaemonOptions& o) { return o.credit_limit == 64; },
       "4294967297"},
      {"WHTLAB_IPC_CREDIT_WINDOW_MS", "250",
       [](const DaemonOptions& o) {
         return o.credit_window_ns == 250ULL * 1000000ULL;
       },
       "0"},
      {"WHTLAB_IPC_STRIKES", "5",
       [](const DaemonOptions& o) { return o.strike_limit == 5; }, "-1"},
      {"WHTLAB_IPC_DRAIN_MS", "900",
       [](const DaemonOptions& o) { return o.drain_ms == 900; }, "0"},
      {"WHTLAB_IPC_STATS_PUBLISH_MS", "0",
       [](const DaemonOptions& o) { return o.stats_publish_ms == 0; },
       "3600001"},
      {"WHTLAB_IPC_QUARANTINE", "0",
       [](const DaemonOptions& o) { return o.engine.quarantine_strikes == 0; },
       "1000001"},
      {"WHTLAB_IPC_PROBATION_MS", "75",
       [](const DaemonOptions& o) { return o.engine.probation_ms == 75; },
       "0"},
      {"WHTLAB_IPC_VERIFY", "0",
       [](const DaemonOptions& o) { return !o.engine.verify_finite; }, "2"},
  };
  return knobs;
}

std::vector<std::string> all_knob_names() {
  std::vector<std::string> names = {"WHTLAB_IPC_NAME"};
  for (const IntKnob& knob : int_knobs()) names.emplace_back(knob.name);
  return names;
}

class DaemonOptionsFromEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string& name : all_knob_names()) {
      const char* value = std::getenv(name.c_str());
      saved_.push_back({name, value ? std::optional<std::string>(value)
                                    : std::nullopt});
      ::unsetenv(name.c_str());
    }
  }

  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }

  /// Expects from_env() to throw std::invalid_argument naming `knob`.
  static void expect_refused(const char* knob, const char* value) {
    ::setenv(knob, value, 1);
    try {
      (void)DaemonOptions::from_env();
      ADD_FAILURE() << knob << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << "the error must name the knob: " << e.what();
    }
    ::unsetenv(knob);
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(DaemonOptionsFromEnv, UnsetKnobsKeepTheDefaults) {
  const DaemonOptions options = DaemonOptions::from_env();
  const DaemonOptions defaults;
  EXPECT_EQ(options.endpoint, defaults.endpoint);
  EXPECT_EQ(options.slots, defaults.slots);
  EXPECT_EQ(options.arena_doubles, defaults.arena_doubles);
  EXPECT_EQ(options.credit_limit, defaults.credit_limit);
  EXPECT_EQ(options.credit_window_ns, defaults.credit_window_ns);
  // The daemon arms the circuit breaker and the verify hook by default.
  EXPECT_EQ(options.engine.quarantine_strikes, 3);
  EXPECT_TRUE(options.engine.verify_finite);
}

TEST_F(DaemonOptionsFromEnv, EveryKnobIsApplied) {
  ::setenv("WHTLAB_IPC_NAME", "env-endpoint", 1);
  for (const IntKnob& knob : int_knobs()) ::setenv(knob.name, knob.value, 1);
  const DaemonOptions options = DaemonOptions::from_env();
  EXPECT_EQ(options.endpoint, "env-endpoint");
  for (const IntKnob& knob : int_knobs()) {
    EXPECT_TRUE(knob.applied(options)) << knob.name << "=" << knob.value;
  }
}

TEST_F(DaemonOptionsFromEnv, OutOfRangeValuesAreRefusedByName) {
  for (const IntKnob& knob : int_knobs()) {
    SCOPED_TRACE(knob.name);
    expect_refused(knob.name, knob.out_of_range);
  }
}

TEST_F(DaemonOptionsFromEnv, NonIntegerValuesAreRefusedByName) {
  for (const IntKnob& knob : int_knobs()) {
    SCOPED_TRACE(knob.name);
    expect_refused(knob.name, "12x");
    expect_refused(knob.name, "many");
  }
}

}  // namespace
}  // namespace whtlab::ipc
