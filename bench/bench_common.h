// Shared helpers for the figure/table reproduction harnesses.
//
// Times reported are *virtual* nanoseconds from the psim machine model
// (DESIGN.md §2): the host has one physical core, so parallel scaling is
// modeled, not measured. Shapes — speedups, crossovers, overhead bands —
// are the reproduction target, not absolute times.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/minibude/minibude.h"
#include "src/core/remarks.h"
#include "src/support/table.h"

namespace parad::bench {

/// google-benchmark's reading of a bool flag's value: empty is true, and
/// so is any value but 0/f/n/false/no/off (any case) or one non-alnum char.
inline bool truthyFlagValue(std::string_view value) {
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v.size() == 1)
    return std::isalnum(static_cast<unsigned char>(v[0])) && v != "0" &&
           v != "f" && v != "n";
  return v != "false" && v != "no" && v != "off";
}

/// Runs the google-benchmark cases the command line selects. Returns false
/// when it only asks to list them (`--benchmark_list_tests` or the
/// BENCHMARK_LIST_TESTS environment variable, read as google-benchmark reads
/// them): the caller then stops, without its own measurements and without
/// writing a BENCH_<name>.json.
inline bool runBenchmarks(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_list_tests";
  const char* env = std::getenv("BENCHMARK_LIST_TESTS");
  bool listOnly = env != nullptr && truthyFlagValue(env);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) != kFlag) continue;
    std::string_view rest = arg.substr(kFlag.size());
    if (rest.empty())
      listOnly = true;
    else if (rest.front() == '=')
      listOnly = truthyFlagValue(rest.substr(1));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return !listOnly;
}

inline void header(const char* id, const char* what, const char* expect) {
  std::printf("==================================================================\n");
  std::printf("%s: %s\n", id, what);
  std::printf("paper shape to reproduce: %s\n", expect);
  std::printf("(times are virtual ns on the modeled 2x32-core machine)\n");
  std::printf("==================================================================\n");
}

struct LuleshVariant {
  const char* name;
  apps::lulesh::Config cfg;
  bool ompOpt = true;
  bool cotape = false;
};

/// Builds + prepares + differentiates one LULESH variant, returning the
/// ready module and gradient info (empty gradient name for cotape).
struct PreparedLulesh {
  ir::Module mod;
  core::GradInfo gi;
};

inline PreparedLulesh prepareLulesh(const LuleshVariant& v) {
  PreparedLulesh out;
  out.mod = apps::lulesh::build(v.cfg);
  apps::lulesh::prepare(out.mod, v.ompOpt);
  if (!v.cotape) out.gi = apps::lulesh::buildGradient(out.mod);
  return out;
}

/// Copies the static plan-decision counts of a generated gradient into the
/// run's dynamic stats so one record carries both.
inline void applyPlanCounts(psim::RunStats& stats,
                            const core::PlanCounts& plan) {
  stats.planAccumSerial = static_cast<std::uint64_t>(plan.accumSerial);
  stats.planAccumReductionSlot =
      static_cast<std::uint64_t>(plan.accumReductionSlot);
  stats.planAccumAtomic = static_cast<std::uint64_t>(plan.accumAtomic);
  stats.planCacheRecompute = static_cast<std::uint64_t>(plan.cacheRecompute);
  stats.planCacheSlots = static_cast<std::uint64_t>(plan.cacheFnSlots);
  stats.planCacheTripArrays = static_cast<std::uint64_t>(plan.cacheTripArrays);
}

/// Prints the plan decisions that differ between a baseline gradient and an
/// ablated one, using their remark streams (src/core/remarks.h). This is how
/// the ablation tables answer "*which* decisions flipped", not just "how many".
inline void reportDecisionFlips(const core::RemarkStream& base,
                                const core::RemarkStream& alt,
                                const char* altName, int maxShown = 8) {
  auto render = [](const core::Remark& r) {
    return std::string("[") + core::remarkKindName(r.kind) + "] " + r.message;
  };
  std::vector<std::string> a, b;
  for (const auto& r : base.remarks()) a.push_back(render(r));
  for (const auto& r : alt.remarks()) b.push_back(render(r));
  auto contains = [](const std::vector<std::string>& v,
                     const std::string& s) {
    for (const auto& x : v)
      if (x == s) return true;
    return false;
  };
  int flips = 0, shown = 0;
  for (const auto& s : a)
    if (!contains(b, s)) flips++;
  for (const auto& s : b)
    if (!contains(a, s)) flips++;
  std::printf("decision flips vs auto (%s): %d\n", altName, flips);
  for (const auto& s : a)
    if (!contains(b, s) && shown < maxShown)
      std::printf("  - %s\n", s.c_str()), shown++;
  for (const auto& s : b)
    if (!contains(a, s) && shown < maxShown)
      std::printf("  + %s\n", s.c_str()), shown++;
  if (shown < flips) std::printf("  ... %d more\n", flips - shown);
}

/// Machine-readable result sink: each bench writes BENCH_<name>.json next to
/// the executable's working directory with one record per measured row
/// (timings plus the plan-decision counts that produced them). Key order is
/// insertion order, so output is deterministic for a fixed bench.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Starts a new record; subsequent num()/str() calls attach to it.
  void row(const std::string& label) {
    rows_.push_back({label, {}, {}});
  }
  void num(const std::string& key, double value) {
    rows_.back().nums.emplace_back(key, value);
  }
  void str(const std::string& key, std::string value) {
    rows_.back().strs.emplace_back(key, std::move(value));
  }
  /// Timing + dynamic-cost + plan-count block shared by all benches.
  void stats(double ns, const psim::RunStats& s) {
    num("virtual_ns", ns);
    num("atomic_ops", static_cast<double>(s.atomicOps));
    num("messages", static_cast<double>(s.messages));
    num("cache_bytes", static_cast<double>(s.cacheBytes));
    num("tape_bytes", static_cast<double>(s.tapeBytes));
    num("peak_live_bytes", static_cast<double>(s.peakLiveBytes));
    num("plan_accum_serial", static_cast<double>(s.planAccumSerial));
    num("plan_accum_reduction_slot",
        static_cast<double>(s.planAccumReductionSlot));
    num("plan_accum_atomic", static_cast<double>(s.planAccumAtomic));
    num("plan_cache_recompute", static_cast<double>(s.planCacheRecompute));
    num("plan_cache_fn_slots", static_cast<double>(s.planCacheSlots));
    num("plan_cache_trip_arrays",
        static_cast<double>(s.planCacheTripArrays));
  }

  void write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [", name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\"", i ? "," : "",
                   r.label.c_str());
      for (const auto& [k, v] : r.strs)
        std::fprintf(f, ", \"%s\": \"%s\"", k.c_str(), v.c_str());
      for (const auto& [k, v] : r.nums) {
        if (v == std::floor(v) && std::fabs(v) < 9.0e15)
          std::fprintf(f, ", \"%s\": %lld", k.c_str(),
                       static_cast<long long>(v));
        else
          std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> nums;
    std::vector<std::pair<std::string, std::string>> strs;
  };
  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace parad::bench
