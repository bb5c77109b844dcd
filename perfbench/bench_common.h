// Shared helpers of the her_perfbench binary: clocks, medians, Pi digests and
// the one-line JSON report each subcommand prints for run.py to parse.

#ifndef HER_PERFBENCH_BENCH_COMMON_H_
#define HER_PERFBENCH_BENCH_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/match_engine.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Cumulative resource usage of this process (all threads).
struct Usage {
  double sys_s = 0.0;        // kernel CPU time
  double minor_faults = 0.0;
  double vol_switches = 0.0;  // voluntary context switches (blocking waits)

  Usage operator-(const Usage& o) const {
    return {sys_s - o.sys_s, minor_faults - o.minor_faults,
            vol_switches - o.vol_switches};
  }
};

inline Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6,
          static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_nvcsw)};
}

/// Host CPU ticks from /proc/stat: {steal, total}. Zeros without procfs.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

inline HostTicks ReadHostTicks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const unsigned long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

/// Share of host CPU time stolen by the hypervisor between two readings.
inline double StealFraction(const HostTicks& a, const HostTicks& b) {
  return b.total == a.total ? 0.0
                            : static_cast<double>(b.steal - a.steal) /
                                  static_cast<double>(b.total - a.total);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Order-sensitive digest of a sorted match relation (Pi).
inline uint64_t PiDigest(const std::vector<her::MatchPair>& pi) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ pi.size();
  for (const her::MatchPair& p : pi) {
    h = her::Mix64(h ^ (static_cast<uint64_t>(p.first) << 32 | p.second));
  }
  return h;
}

inline std::string Hex(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Flat JSON object of numbers, strings and number lists, printed on one
/// line. Doubles keep all 17 significant digits.
class Report {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    fields_[key] = buf;
  }
  void Str(const std::string& key, const std::string& v) {
    fields_[key] = "\"" + v + "\"";
  }
  void List(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      s += (i == 0 ? "" : ",");
      s += buf;
    }
    fields_[key] = s + "]";
  }
  void Print() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : fields_) {
      out += (first ? "\"" : ",\"") + k + "\":" + v;
      first = false;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::string> fields_;
};

}  // namespace perfbench

#endif  // HER_PERFBENCH_BENCH_COMMON_H_
