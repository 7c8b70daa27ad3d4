#include "procstat.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

/// Value of a "Key:   123 kB" line in a /proc status file (0 when absent).
std::uint64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::stoull(line.substr(key_len + 1));
    }
  }
  return 0;
}

}  // namespace

ProcUsage self_usage() {
  ProcUsage out;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  out.voluntary = static_cast<std::uint64_t>(usage.ru_nvcsw);
  out.involuntary = static_cast<std::uint64_t>(usage.ru_nivcsw);
  out.hwm_mib = static_cast<double>(status_field("/proc/self/status", "VmHWM")) / 1024.0;
  out.ok = true;
  return out;
}

ProcUsage proc_usage(pid_t pid) {
  ProcUsage out;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string text;
  if (!std::getline(stat, text)) return out;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return out;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  out.cpu_s = static_cast<double>(utime + stime) /
              static_cast<double>(sysconf(_SC_CLK_TCK));
  if (DIR* tasks = opendir((base + "/task").c_str())) {
    while (const dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      const std::string status = base + "/task/" + entry->d_name + "/status";
      out.voluntary += status_field(status, "voluntary_ctxt_switches");
      out.involuntary += status_field(status, "nonvoluntary_ctxt_switches");
    }
    closedir(tasks);
  }
  out.hwm_mib = static_cast<double>(status_field(base + "/status", "VmHWM")) / 1024.0;
  out.ok = true;
  return out;
}

}  // namespace perfbench
