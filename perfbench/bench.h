// Shared pieces of the repository benchmark: options, the metric sink, the
// latency summaries and the clocks. See perfbench/README.md for what each
// workload measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Op index whose gradient gets one element perturbed before it is
  /// checked (-1: none). The self-test uses it to prove the checks bite.
  long perturbOp = -1;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string traceDir = ".bench_build/traces";
};

/// Wall clock (steady) in nanoseconds; the same clock serve::nowNs() reads.
inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t threadCpuNs();

/// Process peak resident set size in MiB (getrusage).
double peakRssMb();

/// Median of `v` (sorted copy); 0 for an empty vector.
double median(std::vector<double> v);

/// The highest percentile of `sorted` with at least ten samples beyond it,
/// by nearest rank (the median when there are ten samples or fewer).
struct Tail {
  double percentile = 50;
  double value = 0;
};
Tail tailOf(const std::vector<double>& sorted);

/// One run's result: named metrics with units, plus op accounting and the
/// exact-count fingerprint that must repeat on every run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed, shed or wrong ops
  bool referenceOk = true;   // false: an oracle itself failed its checks
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> fingerprint;
  /// Free-form notes printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// Times the set-up repetitions of a run (setup_s is their median): each
/// one's wall time minus the benchmark's own oracle computations inside it.
/// The first repetition is measured from process start; the later ones
/// re-run the set-up in a warm process.
class SetupClock {
 public:
  void begin() { t0_ = nowNs(); excluded_ = 0; }
  void exclude(std::uint64_t ns) { excluded_ += ns; }
  void end(std::uint64_t processStartNs) {
    std::uint64_t start = reps_.empty() ? processStartNs : t0_;
    reps_.push_back(double(nowNs() - start - excluded_) * 1e-9);
  }
  /// Whether to run another repetition: until there are `minReps` and they
  /// add up to `targetS` seconds (cheap set-ups get more, for a steadier
  /// median).
  bool more(std::size_t minReps, double targetS) const {
    double total = 0;
    for (double r : reps_) total += r;
    return reps_.size() < minReps || (total < targetS && reps_.size() < 100);
  }
  double medianS() const { return median(reps_); }
  /// The cold first repetition, from process start.
  double firstS() const { return reps_.empty() ? 0 : reps_.front(); }
  std::size_t reps() const { return reps_.size(); }

 private:
  std::uint64_t t0_ = 0, excluded_ = 0;
  std::vector<double> reps_;
};

/// Set-up repetitions run before the timed window and again after it, so
/// setup_s samples the host at two points in time.
inline bool moreSetupBefore(const SetupClock& c) { return c.more(3, 1.0); }
inline bool moreSetupAfter(const SetupClock& c) { return c.more(6, 2.0); }

/// Sets the end-to-end metrics of an untraced run from its set-up clock, the
/// latencies of its verified ops, the timed window's length and the
/// gradient ÷ primal virtual-time ratio.
void endToEnd(Result& r, const SetupClock& setup, std::vector<double> latMs,
              double windowS, double gradOverhead);

Result runMpHalo(const Options& o, std::uint64_t processStartNs);
Result runCompileSweep(const Options& o, std::uint64_t processStartNs);
Result runServeOpen(const Options& o, std::uint64_t processStartNs);
/// Not a workload: the rate serve_open's service configuration sustains on
/// the small/medium mix, driven closed-loop for --seconds. kOfferedRps in
/// serve_open.cpp is set from it.
Result runServeCapacity(const Options& o);

}  // namespace perfbench
