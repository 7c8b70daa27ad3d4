// Environment-variable configuration knobs.
//
// The experiment harness scales with `WHTLAB_SAMPLES`, `WHTLAB_MAXN`, and
// `WHTLAB_SEED` (see the README's environment table).  These helpers parse
// them with defaults so every bench binary interprets the knobs identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace whtlab::util {

/// Raw lookup; nullopt when unset or empty.
std::optional<std::string> env_string(const char* name);

/// Integer lookup with default; throws std::invalid_argument on garbage so a
/// typo in an experiment invocation fails loudly instead of silently running
/// the wrong configuration.
std::int64_t env_int(const char* name, std::int64_t fallback);

double env_double(const char* name, double fallback);

}  // namespace whtlab::util
