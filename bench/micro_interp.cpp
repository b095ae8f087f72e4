// Micro-benchmark (google-benchmark): real-time dispatch throughput of the
// execution engines — the lowered flat-program executor and the native
// codegen backend vs the recursive tree-walker (DESIGN.md §9, §13). Unlike
// the figure harnesses, the quantity of interest here is *wall* time per
// executed IR instruction; the virtual clocks of the engines are
// bit-identical by construction (test_exec.cpp) so only host-side dispatch
// cost differs.
//
// The codegen lane is opt-in (PARAD_BENCH_CODEGEN=1): it invokes the host
// compiler at warm-up, and keeping it out of the default run leaves
// BENCH_micro_interp.json byte-identical for existing consumers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

bool codegenLaneEnabled() {
  const char* v = std::getenv("PARAD_BENCH_CODEGEN");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

// Straight-line arithmetic in a hot serial loop: the pure dispatch path.
ir::Module scalarLoopModule() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), len, [&](Value i) {
    auto v = b.load(x, i);
    for (int k = 0; k < 6; ++k) v = b.fadd(b.fmul(v, b.constF(0.999)), b.constF(1e-3));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

// A tiny leaf called in a loop: stresses per-call setup (frame creation,
// callee resolution, arg marshalling) — the path the lowering pre-resolves.
ir::Module callHeavyModule() {
  ir::Module mod;
  {
    ir::FunctionBuilder leaf(mod, "leaf", {Type::F64}, Type::F64);
    auto v = leaf.param(0);
    leaf.ret(leaf.fadd(leaf.fmul(v, v), leaf.constF(1.0)));
    leaf.finish();
  }
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), len, [&](Value i) {
    auto v = b.call("leaf", {b.load(x, i)});
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

// Fork with barrier-delimited segments and workshared loops: the structural
// path (segmentation, per-thread private save/restore) that the lowering
// precomputes.
ir::Module forkWorkshareModule() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  b.emitFork(b.constI(4), [&](Value) {
    b.emitWorkshare(b.constI(0), len, [&](Value i) {
      b.store(x, i, b.fmul(b.load(x, i), b.constF(1.0000001)));
    });
    b.barrier();
    b.emitWorkshare(b.constI(0), len, [&](Value i) {
      b.store(x, i, b.fadd(b.load(x, i), b.constF(1e-9)));
    });
  });
  b.ret(b.load(x, b.constI(0)));
  b.finish();
  return mod;
}

struct Throughput {
  double instsPerSec = 0;   // best (least-interfered) window
  std::uint64_t insts = 0;  // totals over every window
  double wallNs = 0;
  int reps = 0;
};

/// One engine's measurement lane: a dedicated Machine plus input buffer,
/// warmed up once so one-time costs (lowering, and for codegen the host
/// compile — both amortized across runs in practice, and cached
/// process-wide) do not skew the rate.
class Lane {
 public:
  Lane(const ir::Module& mod, i64 len, std::string engine)
      : mod_(mod), len_(len), engine_(std::move(engine)) {
    p_ = m_.mem().alloc(Type::F64, len, 0);
    for (i64 k = 0; k < len; ++k) m_.mem().atF(p_, k) = 0.5 + 1e-3 * double(k);
    runOnce();  // warm-up (also populates the program/artifact caches)
  }

  /// Repeats the run until ~windowNs of wall time has accumulated and folds
  /// the window's instructions-per-second into the running best.
  void window(double windowNs) {
    std::uint64_t insts0 = m_.stats().instsExecuted;
    auto t0 = std::chrono::steady_clock::now();
    double elapsedNs = 0;
    int reps = 0;
    while (elapsedNs < windowNs) {
      runOnce();
      ++reps;
      elapsedNs = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    std::uint64_t insts = m_.stats().instsExecuted - insts0;
    t_.instsPerSec =
        std::max(t_.instsPerSec, double(insts) / (elapsedNs * 1e-9));
    t_.insts += insts;
    t_.wallNs += elapsedNs;
    t_.reps += reps;
  }

  const Throughput& result() const { return t_; }

 private:
  void runOnce() {
    m_.run({1, 4}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod_, m_, engine_);
      it.run(mod_.get("f"), {interp::RtVal::P(p_), interp::RtVal::I(len_)},
             env);
    });
  }

  const ir::Module& mod_;
  i64 len_;
  std::string engine_;
  psim::Machine m_;
  psim::RtPtr p_;
  Throughput t_;
};

/// Measures one lane per engine with interleaved short windows and reports
/// each engine's best window. External interference (this is a shared host,
/// not a quiet lab machine) can only ever slow a window down, so the max
/// over several windows estimates the undisturbed throughput; alternating
/// the engines window-by-window keeps slow drift from favoring any side.
std::vector<Throughput> measure(const ir::Module& mod, i64 len,
                                const std::vector<std::string>& engines) {
  constexpr int kWindows = 6;
  constexpr double kWindowNs = 6e7;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (const std::string& e : engines)
    lanes.push_back(std::make_unique<Lane>(mod, len, e));
  for (int r = 0; r < kWindows; ++r)
    for (auto& lane : lanes) lane->window(kWindowNs);
  std::vector<Throughput> out;
  for (auto& lane : lanes) out.push_back(lane->result());
  return out;
}

void BM_DispatchLowered(benchmark::State& state) {
  ir::Module mod = scalarLoopModule();
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4096, 0);
  for (i64 k = 0; k < 4096; ++k) m.mem().atF(p, k) = 0.5;
  for (auto _ : state) {
    std::uint64_t before = m.stats().instsExecuted;
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "exec");
      it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(4096)}, env);
    });
    state.SetItemsProcessed(state.items_processed() +
                            int64_t(m.stats().instsExecuted - before));
  }
}
BENCHMARK(BM_DispatchLowered);

void BM_DispatchTreeWalk(benchmark::State& state) {
  ir::Module mod = scalarLoopModule();
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4096, 0);
  for (i64 k = 0; k < 4096; ++k) m.mem().atF(p, k) = 0.5;
  for (auto _ : state) {
    std::uint64_t before = m.stats().instsExecuted;
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "tree");
      it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(4096)}, env);
    });
    state.SetItemsProcessed(state.items_processed() +
                            int64_t(m.stats().instsExecuted - before));
  }
}
BENCHMARK(BM_DispatchTreeWalk);

}  // namespace

int main(int argc, char** argv) {
  if (!parad::bench::runBenchmarks(argc, argv)) return 0;

  const bool withCodegen = codegenLaneEnabled();

  struct Kernel {
    const char* name;
    ir::Module mod;
    i64 len;
  };
  Kernel kernels[] = {
      {"scalar_loop", scalarLoopModule(), 4096},
      {"call_heavy", callHeavyModule(), 4096},
      {"fork_workshare", forkWorkshareModule(), 4096},
  };

  parad::bench::header(
      "micro_interp", "wall-time dispatch throughput, lowered vs tree-walker",
      "lowered executor >= 2x tree-walker instructions/second");
  if (withCodegen)
    std::printf(
        "codegen lane enabled (PARAD_BENCH_CODEGEN=1): codegen "
        "instructions/second are reported relative to the lowered engine\n");

  std::vector<std::string> engines = {"exec", "tree"};
  if (withCodegen) engines.push_back("codegen");

  parad::bench::BenchJson json("micro_interp");
  double logSum = 0;
  double dispatchSpeedup = 0;
  double codegenDispatchSpeedup = 0;
  int n = 0;
  for (Kernel& k : kernels) {
    std::vector<Throughput> t = measure(k.mod, k.len, engines);
    const Throughput& lo = t[0];
    const Throughput& tw = t[1];
    double speedup = lo.instsPerSec / tw.instsPerSec;
    logSum += std::log(speedup);
    ++n;
    // scalar_loop is the dispatch-bound kernel and therefore the dispatch-
    // throughput headline; call_heavy and fork_workshare spend most of their
    // time in call-frame and fork/workshare machinery shared (by design —
    // identical observable behavior) with the tree-walker, so their ratios
    // measure that machinery, not dispatch.
    bool isDispatchKernel = std::strcmp(k.name, "scalar_loop") == 0;
    if (isDispatchKernel) dispatchSpeedup = speedup;
    std::printf(
        "%-15s lowered %8.2f Minst/s (%d reps)   treewalk %8.2f Minst/s "
        "(%d reps)   speedup %.2fx\n",
        k.name, lo.instsPerSec / 1e6, lo.reps, tw.instsPerSec / 1e6, tw.reps,
        speedup);
    json.row(k.name);
    json.num("len", double(k.len));
    json.num("lowered_insts_per_sec", lo.instsPerSec);
    json.num("lowered_insts", double(lo.insts));
    json.num("lowered_wall_ns", lo.wallNs);
    json.num("lowered_reps", lo.reps);
    json.num("treewalk_insts_per_sec", tw.instsPerSec);
    json.num("treewalk_insts", double(tw.insts));
    json.num("treewalk_wall_ns", tw.wallNs);
    json.num("treewalk_reps", tw.reps);
    json.num("speedup", speedup);
    if (withCodegen) {
      const Throughput& cg = t[2];
      double cgVsLowered = cg.instsPerSec / lo.instsPerSec;
      if (isDispatchKernel) codegenDispatchSpeedup = cgVsLowered;
      std::printf(
          "%-15s codegen %8.2f Minst/s (%d reps)   vs lowered %.2fx   "
          "vs treewalk %.2fx\n",
          k.name, cg.instsPerSec / 1e6, cg.reps, cgVsLowered,
          cg.instsPerSec / tw.instsPerSec);
      json.num("codegen_insts_per_sec", cg.instsPerSec);
      json.num("codegen_insts", double(cg.insts));
      json.num("codegen_wall_ns", cg.wallNs);
      json.num("codegen_reps", cg.reps);
      json.num("codegen_speedup_vs_lowered", cgVsLowered);
    }
  }
  double geomean = std::exp(logSum / n);
  std::printf("geomean speedup: %.2fx\n", geomean);
  std::printf("dispatch throughput (scalar_loop): %.2fx (criterion: >= 2x)\n",
              dispatchSpeedup);
  if (withCodegen)
    std::printf(
        "codegen dispatch throughput vs lowered (scalar_loop): %.2fx\n",
        codegenDispatchSpeedup);
  json.row("geomean");
  json.num("speedup", geomean);
  json.num("dispatch_speedup", dispatchSpeedup);
  if (withCodegen)
    json.num("codegen_dispatch_speedup", codegenDispatchSpeedup);
  json.write();
  return 0;
}
