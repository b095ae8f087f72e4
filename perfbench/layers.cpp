#include "perfbench/layers.h"

#include <sys/stat.h>

#include <cstdio>
#include <vector>

#include "perfbench/trace.h"
#include "src/psim/sim.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json (run.py checks it).
constexpr LayerMetric kLayerMetrics[] = {
    {"ir.build_ms", "ms"},
    {"ir.insts_primal", "count"},
    {"ir.insts_grad", "count"},
    {"ir.self_ms", "ms"},
    {"passes.prepare_ms", "ms"},
    {"passes.optimize_ms", "ms"},
    {"passes.self_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.generate_ms", "ms"},
    {"core.accum_serial", "count"},
    {"core.accum_slot", "count"},
    {"core.accum_atomic", "count"},
    {"core.cache_recompute", "count"},
    {"core.cache_slots", "count"},
    {"core.cache_trip_arrays", "count"},
    {"core.cache_bytes", "bytes"},
    {"core.self_ms", "ms"},
    {"interp.lower_ms", "ms"},
    {"interp.lower_bytes", "bytes"},
    {"interp.insts_per_op", "count"},
    {"interp.minst_per_s", "Minst/s"},
    {"interp.program_cache_hits", "count"},
    {"interp.program_cache_misses", "count"},
    {"interp.self_ms", "ms"},
    {"psim.run_ms", "ms"},
    {"psim.empty_run_us", "us"},
    {"psim.context_switches", "count"},
    {"psim.messages", "count"},
    {"psim.bytes_sent", "bytes"},
    {"psim.collective_stages", "count"},
    {"psim.atomic_ops", "count"},
    {"psim.virtual_ns", "ns"},
    {"psim.peak_live_bytes", "bytes"},
    {"psim.self_ms", "ms"},
    {"serve.submit_us", "us"},
    {"serve.batches", "count"},
    {"serve.batch_size_mean", "count"},
    {"serve.isolated_runs", "count"},
    {"serve.shed", "count"},
    {"serve.direct_ms", "ms"},
    {"serve.gen_late_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"bench.trace_overhead_frac", "frac"},
};

constexpr const char* kLayers[] = {"bench", "ir",   "passes", "core",
                                   "interp", "psim", "serve"};

}  // namespace

void initLayerMetrics(Result& r) {
  for (const LayerMetric& m : kLayerMetrics) r.set(m.name, 0, m.unit);
}

double meanSpanMs(const std::string& name) {
  trace::NameTotal t = trace::totalOf(name, /*opsOnly=*/true);
  if (t.count == 0) t = trace::totalOf(name);
  return t.count ? t.wallMs / double(t.count) : 0;
}

void selfTimeMetrics(Result& r, const std::string& workload) {
  std::vector<trace::LayerSelf> rows = trace::selfByLayer();
  long ops = trace::opsRecorded();
  double opsTotal = 0;
  for (const auto& l : rows) opsTotal += l.opsMs;
  std::printf("per-layer self time, %s (%ld traced ops)\n", workload.c_str(),
              ops);
  std::printf("  %-8s %12s %14s %10s\n", "layer", "setup ms", "ms per op",
              "op share");
  for (const char* layer : kLayers) {
    trace::LayerSelf l{layer, 0, 0};
    for (const auto& row : rows)
      if (row.layer == layer) l = row;
    double perOp = ops ? l.opsMs / double(ops) : 0;
    r.set(std::string(layer) + ".self_ms", perOp, "ms");
    std::printf("  %-8s %12.3f %14.4f %9.1f%%\n", layer, l.setupMs, perOp,
                opsTotal > 0 ? 100.0 * l.opsMs / opsTotal : 0.0);
  }
}

void addPlanMetrics(Result& r, const Compiled& c, const RunOut& grad) {
  const parad::core::PlanCounts& p = c.gi.plan;
  auto add = [&](const char* name, double v) {
    r.metrics[name].first += v;
  };
  add("core.accum_serial", p.accumSerial);
  add("core.accum_slot", p.accumReductionSlot);
  add("core.accum_atomic", p.accumAtomic);
  add("core.cache_recompute", p.cacheRecompute);
  add("core.cache_slots", p.cacheFnSlots);
  add("core.cache_trip_arrays", p.cacheTripArrays);
  add("core.cache_bytes", double(grad.stats.cacheBytes));
}

void fingerprintCompile(Result& r, const std::string& prefix,
                        const Compiled& c) {
  const parad::core::PlanCounts& p = c.gi.plan;
  auto& f = r.fingerprint;
  f[prefix + "ir_insts_primal"] = double(c.instsPrimal);
  f[prefix + "ir_insts_grad"] = double(c.instsGrad);
  f[prefix + "lower_bytes"] = double(c.lowerBytes);
  f[prefix + "plan_accum_serial"] = p.accumSerial;
  f[prefix + "plan_accum_slot"] = p.accumReductionSlot;
  f[prefix + "plan_accum_atomic"] = p.accumAtomic;
  f[prefix + "plan_cache_recompute"] = p.cacheRecompute;
  f[prefix + "plan_cache_slots"] = p.cacheFnSlots;
  f[prefix + "plan_cache_trip_arrays"] = p.cacheTripArrays;
}

double emptyRunUs(int ranks, int threadsPerRank) {
  constexpr int kRuns = 25;
  std::vector<double> us;
  parad::psim::Machine m;
  for (int i = 0; i < kRuns; ++i) {
    std::uint64_t t0 = nowNs();
    m.run({ranks, threadsPerRank}, [](parad::psim::RankEnv&) {});
    us.push_back(double(nowNs() - t0) * 1e-3);
  }
  return median(us);
}

void writeTrace(Result& r, const Options& o) {
  // Create each component of the (relative) trace directory.
  for (std::size_t i = 0; i <= o.traceDir.size(); ++i)
    if (i == o.traceDir.size() || o.traceDir[i] == '/')
      if (i > 0) mkdir(o.traceDir.substr(0, i).c_str(), 0755);
  std::string path = o.traceDir + "/" + o.workload + "-seed" +
                     std::to_string(o.seed) + ".json";
  r.notes.push_back(trace::writeChrome(path)
                        ? "trace written to " + path
                        : "could not write trace " + path);
}

}  // namespace perfbench
