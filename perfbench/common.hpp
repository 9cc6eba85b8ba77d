#pragma once

// Shared plumbing of the benchmark driver: command-line options, the metric
// list every workload fills in, percentile/quantile helpers and process
// resource probes. Nothing here touches the system under test.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Short run for the self-test: fewer set-ups, keys and sweep seeds. The
  /// metric set and every check stay the same.
  bool smoke = false;
  std::string trace_out;  ///< spans file written by traced KV runs (may be empty)
};

/// Metrics in emission order. A workload sets every name it is asked for;
/// main() refuses to print a result with a missing end-to-end metric.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  bool has(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return true;
    }
    return false;
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// Free-form key/value facts about a run (parameters, sample counts, the
/// source revision), printed as one "# meta" JSON line before the result.
using Meta = std::vector<std::pair<std::string, std::string>>;

/// Everything a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Meta meta;
  std::vector<std::string> errors;  ///< why `correct` is false
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Nearest-rank quantile of an unsorted sample (copied). 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Median of a small sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Usage {
  double cpu_us = 0;
  double ctx_switches = 0;
};

inline Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Peak resident set size of this process, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline void sleep_until_ns(std::uint64_t t_ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t_ns)));
}

/// Machine-wide CPU time from /proc/stat, in seconds: the part the
/// hypervisor gave to other guests ("steal"), the part no one used, and the
/// total; plus this process's own CPU time. Zeros when the file cannot be
/// read.
struct CpuTicks {
  double steal = 0;
  double idle = 0;
  double total = 0;
  double own = 0;
};

inline CpuTicks cpu_ticks() {
  CpuTicks t;
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  t.own = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  const double tick = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0;
    in >> v;
    t.total += v * tick;
    if (i == 3 || i == 4) t.idle += v * tick;
    if (i == 7) t.steal = v * tick;
  }
  return t;
}

/// Share of the machine's CPU time stolen between two readings.
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0;
}

/// Share of the machine's CPU time between two readings that the host took
/// from this process: stolen by the hypervisor, or used by other processes.
inline double interference_share(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  if (total <= 0) return 0;
  const double steal = b.steal - a.steal;
  const double busy = total - (b.idle - a.idle) - steal;
  const double others = std::max(0.0, busy - (b.own - a.own));
  return std::min(1.0, (steal + others) / total);
}

/// Live thread count of this process (Linux /proc).
inline double thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0;
}

}  // namespace perfbench
