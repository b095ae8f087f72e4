// Micro-benchmarks (google-benchmark): per-op AD machinery costs in *wall*
// time — gradient generation, pass pipeline, and interpreter throughput.
// These complement the figure harnesses (which report virtual time).
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_common.h"
#include "src/core/gradient.h"
#include "src/core/plan.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/passes/passes.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

ir::Module chainModule(int n) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), len, [&](Value i) {
    auto v = b.load(x, i);
    for (int k = 0; k < n; ++k) v = b.fmul(v, b.sin_(v));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

void BM_GradientGeneration(benchmark::State& state) {
  ir::Module mod = chainModule(static_cast<int>(state.range(0)));
  core::GradConfig cfg;
  cfg.activeArg = {true, false};
  for (auto _ : state) {
    ir::Module m = mod;
    benchmark::DoNotOptimize(core::generateGradient(m, "f", cfg));
  }
}
BENCHMARK(BM_GradientGeneration)->Arg(4)->Arg(16)->Arg(64);

void BM_InterpreterThroughput(benchmark::State& state) {
  ir::Module mod = chainModule(8);
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 1024, 0);
  for (i64 k = 0; k < 1024; ++k) m.mem().atF(p, k) = 0.5;
  for (auto _ : state) {
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(1024)}, env);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 8);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_PreparePipeline(benchmark::State& state) {
  for (auto _ : state) {
    ir::Module mod = chainModule(16);
    passes::prepareForAD(mod, "f");
    benchmark::DoNotOptimize(mod.get("f").numValues());
  }
}
BENCHMARK(BM_PreparePipeline);

}  // namespace

int main(int argc, char** argv) {
  if (!parad::bench::runBenchmarks(argc, argv)) return 0;

  // Machine-readable record: wall time of one gradient generation per chain
  // length plus the static plan-decision counts behind it.
  parad::bench::BenchJson json("micro_ad_ops");
  for (int n : {4, 16, 64}) {
    ir::Module mod = chainModule(n);
    core::GradConfig cfg;
    cfg.activeArg = {true, false};
    core::GradPlan plan = core::planGradient(mod, "f", cfg);
    auto t0 = std::chrono::steady_clock::now();
    ir::Module m = mod;
    core::GradInfo gi = core::generateGradient(m, "f", cfg);
    auto t1 = std::chrono::steady_clock::now();
    json.row("chain n" + std::to_string(n));
    json.num("chain_len", n);
    json.num("gradgen_wall_ns",
             double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count()));
    json.num("cached_values", gi.numCachedValues);
    json.num("plan_accum_serial", gi.plan.accumSerial);
    json.num("plan_accum_reduction_slot", gi.plan.accumReductionSlot);
    json.num("plan_accum_atomic", gi.plan.accumAtomic);
    json.num("plan_cache_recompute", gi.plan.cacheRecompute);
    json.num("plan_cache_fn_slots", gi.plan.cacheFnSlots);
    json.num("plan_cache_trip_arrays", gi.plan.cacheTripArrays);
    json.num("plan_cache_decisions",
             double(plan.counts.cacheRecompute + plan.counts.cacheFnSlots +
                    plan.counts.cacheTripArrays + plan.counts.cacheDynArrays));
  }
  json.write();
  return 0;
}
