#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

std::uint64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000ull + std::uint64_t(ts.tv_nsec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tailOf(const std::vector<double>& sorted) {
  Tail t;
  std::size_t n = sorted.size();
  if (n <= 10) {  // no percentile has ten samples beyond it
    t.value = median(sorted);
    return t;
  }
  // Nearest rank n - 10: exactly ten samples lie beyond it.
  t.percentile = 100.0 * double(n - 10) / double(n);
  t.value = sorted[n - 11];
  return t;
}

void endToEnd(Result& r, const SetupClock& setup, std::vector<double> latMs,
              double windowS, double gradOverhead) {
  std::sort(latMs.begin(), latMs.end());
  Tail tail = tailOf(latMs);
  r.set("setup_s", setup.medianS(), "s");
  r.set("peak_rss_mb", peakRssMb(), "MB");
  r.set("grad_overhead_x", gradOverhead, "x");
  r.set("ok_frac",
        r.attempted ? double(r.attempted - r.failed) / double(r.attempted) : 0,
        "frac");
  r.set("ops_per_s", windowS > 0 ? double(latMs.size()) / windowS : 0, "1/s");
  r.set("latency_p50_ms", median(latMs), "ms");
  r.set("latency_tail_ms", tail.value, "ms");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "latency_tail_ms is p%.2f of %zu samples",
                tail.percentile, latMs.size());
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "setup_s is the median of %zu set-ups; the first, from "
                "process start, took %.4f s",
                setup.reps(), setup.firstS());
  r.notes.push_back(buf);
}

}  // namespace perfbench
