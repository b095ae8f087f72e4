// Micro-benchmark (google-benchmark): cost of coordinated checkpointing.
//
// Two claims back the checkpoint/restart design (DESIGN.md §11): with
// `ckpt_interval=0` the boundary hook is never installed, so a
// collective-heavy workload pays nothing for the subsystem existing; with
// checkpointing on, the overhead is a per-capture virtual write cost that
// amortizes with the interval (the sweep below), and a recovered rank crash
// costs one rollback-and-replay while program values stay bit-exact.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench/bench_common.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/psim/faults.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

// Ring shift with a barrier closing every round: each barrier is a quiescent
// collective boundary, i.e. a checkpoint opportunity.
ir::Module ringModule(i64 n, i64 rounds) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ring", {Type::PtrF64, Type::PtrF64});
  auto sendbuf = b.param(0), recvbuf = b.param(1);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto right = b.irem(b.iadd(rank, b.constI(1)), size);
  auto left = b.irem(b.iadd(b.isub(rank, b.constI(1)), size), size);
  auto nn = b.constI(n);
  auto tag = b.constI(7);
  b.emitFor(b.constI(0), b.constI(rounds), [&](Value) {
    auto r0 = b.mpIrecv(recvbuf, nn, left, tag);
    auto s0 = b.mpIsend(sendbuf, nn, right, tag);
    b.mpWait(r0);
    b.mpWait(s0);
    b.mpBarrier();
  });
  b.ret();
  b.finish();
  return mod;
}

constexpr int kRanks = 8;
constexpr i64 kLen = 64;
constexpr i64 kRounds = 16;

struct RingRun {
  double makespan = 0;
  psim::RunStats stats;
};

RingRun runRing(const ir::Module& mod, const psim::MachineConfig& mc) {
  psim::Machine m(mc);
  std::vector<psim::RtPtr> sendb, recvb;
  for (int r = 0; r < kRanks; ++r) {
    sendb.push_back(m.mem().alloc(Type::F64, kLen, 0));
    recvb.push_back(m.mem().alloc(Type::F64, kLen, 0));
    for (i64 k = 0; k < kLen; ++k)
      m.mem().atF(sendb.back(), k) = 100.0 * r + static_cast<double>(k);
  }
  RingRun out;
  out.makespan = m.run({kRanks, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ring"),
           {interp::RtVal::P(sendb[(std::size_t)env.rank]),
            interp::RtVal::P(recvb[(std::size_t)env.rank])},
           env);
  });
  out.stats = m.stats();
  return out;
}

psim::MachineConfig ckptConfig(int interval) {
  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = 3;
  mc.faults.ckptInterval = interval;
  return mc;
}

void BM_RingCkptOff(benchmark::State& state) {
  ir::Module mod = ringModule(kLen, kRounds);
  runRing(mod, {});  // warm the lowered-program cache
  for (auto _ : state) {
    RingRun r = runRing(mod, {});
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * kRanks * kRounds);
}
BENCHMARK(BM_RingCkptOff);

void BM_RingCkptEveryBoundary(benchmark::State& state) {
  ir::Module mod = ringModule(kLen, kRounds);
  psim::MachineConfig mc = ckptConfig(1);
  runRing(mod, mc);
  for (auto _ : state) {
    RingRun r = runRing(mod, mc);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * kRanks * kRounds);
}
BENCHMARK(BM_RingCkptEveryBoundary);

}  // namespace

int main(int argc, char** argv) {
  if (!parad::bench::runBenchmarks(argc, argv)) return 0;

  parad::bench::header(
      "micro_ckpt", "checkpoint overhead vs interval, plus one kill-recovery",
      "overhead amortizes with ckpt_interval; recovery stays bit-exact");

  ir::Module mod = ringModule(kLen, kRounds);
  RingRun off = runRing(mod, {});
  std::printf("ckpt off:   makespan %12.1f vns\n", off.makespan);

  parad::bench::BenchJson json("micro_ckpt");
  json.row("ckpt_off");
  json.num("virtual_ns", off.makespan);

  for (int interval : {1, 2, 4, 8}) {
    RingRun on = runRing(mod, ckptConfig(interval));
    double overhead = (on.makespan - off.makespan) / off.makespan;
    std::printf(
        "interval %d: makespan %12.1f vns  checkpoints %llu  "
        "ckpt bytes %llu  overhead %+.2f%%\n",
        interval, on.makespan, (unsigned long long)on.stats.checkpoints,
        (unsigned long long)on.stats.ckptBytes, overhead * 100.0);
    json.row("ckpt_interval_" + std::to_string(interval));
    json.num("virtual_ns", on.makespan);
    json.num("checkpoints", (double)on.stats.checkpoints);
    json.num("ckpt_bytes", (double)on.stats.ckptBytes);
    json.num("overhead_frac", overhead);
  }

  // Recovered crashes: a moderate kill rate landing mid-run, with a retry
  // budget generous enough that every drawn crash is rolled back.
  psim::MachineConfig kill = ckptConfig(2);
  kill.faults.killRate = 0.5;
  kill.faults.killNs = off.makespan * 0.5;
  kill.faults.retryBudget = 64;
  RingRun rec = runRing(mod, kill);
  std::printf(
      "kill run:   makespan %12.1f vns  killed %llu  restores %llu  "
      "slowdown %.2fx\n",
      rec.makespan, (unsigned long long)rec.stats.ranksKilled,
      (unsigned long long)rec.stats.restores, rec.makespan / off.makespan);
  json.row("kill_recovery");
  json.num("virtual_ns", rec.makespan);
  json.num("ranks_killed", (double)rec.stats.ranksKilled);
  json.num("restores", (double)rec.stats.restores);
  json.num("virtual_slowdown", rec.makespan / off.makespan);

  // Durable-checkpoint columns (DESIGN.md §16), opt-in via
  // PARAD_BENCH_DURABLE=1 so the default JSON stays byte-identical: the
  // host-side cost of publishing every epoch to disk (virtual time must not
  // move — persistence happens outside the simulated machine), and the
  // warm-resume payoff when a fresh machine re-seats from the newest on-disk
  // epoch instead of replaying an interrupted run from zero.
  if (const char* e = std::getenv("PARAD_BENCH_DURABLE"); e && *e && *e != '0') {
    std::string tmpl = std::filesystem::temp_directory_path() /
                       "parad_bench_ckpt_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* dir = ::mkdtemp(buf.data());
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed for %s\n", tmpl.c_str());
      return 1;
    }
    auto hostNs = [](auto fn) {
      auto t0 = std::chrono::steady_clock::now();
      fn();
      auto t1 = std::chrono::steady_clock::now();
      return (double)std::chrono::duration_cast<std::chrono::nanoseconds>(
                 t1 - t0)
          .count();
    };

    psim::MachineConfig base = ckptConfig(2);
    RingRun mem;
    double memHostNs = hostNs([&] { mem = runRing(mod, base); });

    psim::MachineConfig dur = base;
    dur.ckptDir = std::string(dir) + "/write";
    RingRun durRun;
    double durHostNs = hostNs([&] { durRun = runRing(mod, dur); });
    std::printf(
        "durable:    makespan %12.1f vns  durable writes %llu  "
        "host overhead %+.1f%%  (virtual time unchanged: %s)\n",
        durRun.makespan, (unsigned long long)durRun.stats.durableWrites,
        (durHostNs - memHostNs) / memHostNs * 100.0,
        durRun.makespan == mem.makespan ? "yes" : "NO");
    json.row("durable_write");
    json.num("virtual_ns", durRun.makespan);
    json.num("durable_writes", (double)durRun.stats.durableWrites);
    json.num("host_overhead_frac", (durHostNs - memHostNs) / memHostNs);
    json.num("virtual_ns_delta_vs_memory", durRun.makespan - mem.makespan);

    // Interrupt a run mid-flight (kill past its retry budget) so its epochs
    // stay on disk, then bring up a fresh machine over the same directory:
    // it resumes from the newest epoch rather than recomputing from zero.
    psim::MachineConfig crash = ckptConfig(2);
    crash.ckptDir = std::string(dir) + "/restart";
    crash.faults.killRate = 0.5;
    crash.faults.killNs = off.makespan * 0.5;
    crash.faults.retryBudget = 0;
    try {
      runRing(mod, crash);
    } catch (const psim::VmError&) {
      // expected: the interrupted "process" died with epochs on disk
    }
    psim::MachineConfig resume = ckptConfig(2);
    resume.ckptDir = crash.ckptDir;
    RingRun warm = runRing(mod, resume);
    std::printf(
        "restart:    makespan %12.1f vns  durable resumes %llu  "
        "cold replay %12.1f vns\n",
        warm.makespan, (unsigned long long)warm.stats.durableResumes,
        mem.makespan);
    json.row("durable_restart");
    json.num("warm_resume_vns", warm.makespan);
    json.num("cold_replay_vns", mem.makespan);
    json.num("durable_resumes", (double)warm.stats.durableResumes);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  json.write();
  return 0;
}
