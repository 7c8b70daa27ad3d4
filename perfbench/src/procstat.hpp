// Per-process accounting read from outside the measured code: getrusage
// for this process, /proc/<pid>/{stat,status} for the forked daemon.
#pragma once

#include <sys/types.h>

#include <cstdint>

namespace perfbench {

struct ProcUsage {
  bool ok = false;
  double cpu_s = 0.0;             ///< user + system CPU time
  std::uint64_t voluntary = 0;    ///< voluntary context switches
  std::uint64_t involuntary = 0;  ///< involuntary context switches
  double hwm_mib = 0.0;           ///< peak resident set (VmHWM)
};

/// This process, all threads (getrusage RUSAGE_SELF + /proc/self/status).
ProcUsage self_usage();

/// Another process: CPU time from /proc/<pid>/stat (all threads), context
/// switches summed over /proc/<pid>/task/*/status (the process-level
/// status file counts only the main thread), VmHWM from /proc/<pid>/status.
ProcUsage proc_usage(pid_t pid);

}  // namespace perfbench
