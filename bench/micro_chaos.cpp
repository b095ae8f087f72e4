// Micro-benchmark (google-benchmark): cost of the fault-injection machinery.
//
// Two claims back the "zero-cost when off" design (DESIGN.md §10): with the
// fault plan disabled the fabric takes none of the fault branches, so a
// message-heavy workload should run at the same wall rate as it did before
// the fault subsystem existed; with the plan enabled, the self-healing
// retransmit protocol must keep program values bit-exact while only the
// virtual timeline (and a modest amount of host work) degrades.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/psim/faults.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

// Multi-round ring shift: message-passing dense, so every send crosses the
// fault decision points in the fabric.
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

psim::MachineConfig chaosConfig() {
  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = 3;
  mc.faults.dropRate = 0.3;
  mc.faults.dupRate = 0.2;
  mc.faults.delayRate = 0.5;
  return mc;
}

void BM_RingFaultsOff(benchmark::State& state) {
  ir::Module mod = ringModule(kLen, kRounds);
  runRing(mod, {});  // warm the lowered-program cache
  for (auto _ : state) {
    RingRun r = runRing(mod, {});
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * kRanks * kRounds);
}
BENCHMARK(BM_RingFaultsOff);

void BM_RingFaultsOn(benchmark::State& state) {
  ir::Module mod = ringModule(kLen, kRounds);
  psim::MachineConfig mc = chaosConfig();
  runRing(mod, mc);
  for (auto _ : state) {
    RingRun r = runRing(mod, mc);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * kRanks * kRounds);
}
BENCHMARK(BM_RingFaultsOn);

}  // namespace

int main(int argc, char** argv) {
  if (!parad::bench::runBenchmarks(argc, argv)) return 0;

  parad::bench::header(
      "micro_chaos", "fault-injection cost, off vs chaos (drop/dup/delay)",
      "faults off == pre-fault fabric; faults on degrades only virtual time");

  ir::Module mod = ringModule(kLen, kRounds);
  RingRun off = runRing(mod, {});
  RingRun on = runRing(mod, chaosConfig());

  std::printf(
      "faults off: makespan %12.1f vns  messages %llu  retransmits %llu\n",
      off.makespan, (unsigned long long)off.stats.messages,
      (unsigned long long)off.stats.retransmits);
  std::printf(
      "faults on:  makespan %12.1f vns  messages %llu  retransmits %llu  "
      "dups %llu  injected %llu\n",
      on.makespan, (unsigned long long)on.stats.messages,
      (unsigned long long)on.stats.retransmits,
      (unsigned long long)on.stats.dupDeliveries,
      (unsigned long long)on.stats.faultsInjected);
  std::printf("virtual slowdown under chaos: %.2fx\n",
              on.makespan / off.makespan);

  parad::bench::BenchJson json("micro_chaos");
  json.row("faults_off");
  json.num("virtual_ns", off.makespan);
  json.num("messages", (double)off.stats.messages);
  json.num("retransmits", (double)off.stats.retransmits);
  json.row("faults_on");
  json.num("virtual_ns", on.makespan);
  json.num("messages", (double)on.stats.messages);
  json.num("retransmits", (double)on.stats.retransmits);
  json.num("dup_deliveries", (double)on.stats.dupDeliveries);
  json.num("faults_injected", (double)on.stats.faultsInjected);
  json.num("virtual_slowdown", on.makespan / off.makespan);
  json.write();
  return 0;
}
