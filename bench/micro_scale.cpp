// Micro-benchmark: weak-scaling sweep of the virtual machine itself.
//
// The claim under test is about the *simulator*, not the modeled program:
// after the hierarchical-collective + event-keyed-scheduler refactor
// (DESIGN.md §12), one simulated step costs O(active ranks) host work plus a
// log-depth collective, and the per-rank simulator state does not grow with
// the machine size. The sweep drives 64 -> 4096 virtual ranks through a
// fixed per-rank workload (local compute, a neighbor ring exchange, one
// allreduce) using direct fabric calls — no IR, so what is measured is the
// fabric/scheduler core, and reports
//   - host wall ns per simulated step (expect an O(n log n) fit: the work is
//     n ranks each paying a log-depth collective),
//   - virtual makespan (deterministic; byte-stable across runs),
//   - peak modeled bytes per rank (must stay flat under weak scaling),
//   - collective stage/wire-byte counters from the tree schedule.
// The summary row carries the log-log fit exponent of wall time vs ranks
// (sub-quadratic bar, with slack for host noise) and the 64->4096 per-rank
// state ratio (flat bar).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;

namespace {

constexpr i64 kHaloElems = 64;   // per-step neighbor payload (512 B)
constexpr i64 kReduceElems = 16; // per-step allreduce payload
constexpr int kSteps = 4;        // simulated steps per run
constexpr double kLocalNs = 5000.0;  // modeled local compute per step

struct ScaleRun {
  double makespan = 0;
  double wallNs = 0;
  psim::RunStats stats;
};

// One weak-scaling run: every rank allocates its own fixed-size buffers and
// executes kSteps of compute -> ring halo exchange -> allreduce.
ScaleRun runScale(int ranks) {
  psim::Machine m;
  std::vector<psim::RtPtr> sendb(static_cast<std::size_t>(ranks)),
      recvb(static_cast<std::size_t>(ranks)),
      redr(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    sendb[(std::size_t)r] = m.mem().alloc(Type::F64, kHaloElems, 0);
    recvb[(std::size_t)r] = m.mem().alloc(Type::F64, kHaloElems, 0);
    redr[(std::size_t)r] = m.mem().alloc(Type::F64, kReduceElems, 0);
    for (i64 k = 0; k < kHaloElems; ++k)
      m.mem().atF(sendb[(std::size_t)r], k) =
          static_cast<double>(r) + 0.001 * static_cast<double>(k);
  }
  std::vector<double> contrib(static_cast<std::size_t>(kReduceElems), 1.0);

  ScaleRun out;
  auto t0 = std::chrono::steady_clock::now();
  out.makespan = m.run({ranks, 1}, [&](psim::RankEnv& env) {
    const int r = env.rank;
    const int right = (r + 1) % ranks;
    const int left = (r + ranks - 1) % ranks;
    psim::Fabric& f = *m.fabric();
    for (int s = 0; s < kSteps; ++s) {
      env.main.advance(kLocalNs);
      auto rr = f.irecv(r, env.main, recvb[(std::size_t)r], kHaloElems, left,
                        /*tag=*/s);
      auto sr = f.isend(r, env.main,
                        &m.mem().atF(sendb[(std::size_t)r], 0), kHaloElems,
                        right, /*tag=*/s);
      f.wait(r, env.main, rr);
      f.wait(r, env.main, sr);
      f.allreduce(r, env.main, ir::ReduceKind::Sum, contrib.data(),
                  redr[(std::size_t)r], kReduceElems);
    }
  });
  out.wallNs = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  out.stats = m.stats();
  return out;
}

// Best-of-k to damp host noise (thread spawn, allocator warmup); the
// virtual-time outputs are identical across repeats by construction.
ScaleRun bestOf(int ranks, int reps) {
  ScaleRun best = runScale(ranks);
  for (int i = 1; i < reps; ++i) {
    ScaleRun r = runScale(ranks);
    if (r.wallNs < best.wallNs) best = r;
  }
  return best;
}

long maxRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void BM_ScaleStep256(benchmark::State& state) {
  for (auto _ : state) {
    ScaleRun r = runScale(256);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 256 * kSteps);
}
BENCHMARK(BM_ScaleStep256);

}  // namespace

int main(int argc, char** argv) {
  if (!parad::bench::runBenchmarks(argc, argv)) return 0;

  parad::bench::header(
      "micro_scale",
      "weak-scaling sweep of the fabric/scheduler core, 64 -> 4096 ranks",
      "near-flat per-rank state; wall time per step fits O(n log n), "
      "far from quadratic");

  std::vector<int> sweep = {64, 256, 1024, 4096};
  parad::bench::BenchJson json("micro_scale");
  double wallFirst = 0, wallLast = 0;
  double stateFirst = 0, stateLast = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    int n = sweep[i];
    ScaleRun r = bestOf(n, 3);
    double wallPerStep = r.wallNs / kSteps;
    double bytesPerRank =
        static_cast<double>(r.stats.peakLiveBytes) / static_cast<double>(n);
    if (i == 0) {
      wallFirst = wallPerStep;
      stateFirst = bytesPerRank;
    }
    wallLast = wallPerStep;
    stateLast = bytesPerRank;
    std::printf(
        "ranks %5d: wall/step %10.0f ns  makespan %12.1f vns  "
        "state/rank %8.0f B  stages %llu  wire %llu B  rss %ld KB\n",
        n, wallPerStep, r.makespan, bytesPerRank,
        (unsigned long long)r.stats.collectiveStages,
        (unsigned long long)r.stats.collectiveBytesOnWire, maxRssKb());
    json.row("ranks_" + std::to_string(n));
    json.num("ranks", n);
    json.num("steps", kSteps);
    json.num("wall_ns_per_step", wallPerStep);
    json.num("virtual_ns", r.makespan);
    json.num("peak_live_bytes", static_cast<double>(r.stats.peakLiveBytes));
    json.num("per_rank_state_bytes", bytesPerRank);
    json.num("collective_stages",
             static_cast<double>(r.stats.collectiveStages));
    json.num("collective_bytes_on_wire",
             static_cast<double>(r.stats.collectiveBytesOnWire));
    json.num("messages", static_cast<double>(r.stats.messages));
    json.num("max_rss_kb", static_cast<double>(maxRssKb()));
  }

  // Log-log fit over the endpoints: exponent 1 = linear, 2 = quadratic; the
  // n log n ideal lands near 1.17 over this range. The bar leaves room for
  // host noise at the small end while still rejecting quadratic behavior.
  double span = static_cast<double>(sweep.back()) /
                static_cast<double>(sweep.front());
  double fitExponent = std::log(wallLast / wallFirst) / std::log(span);
  double stateRatio = stateLast / stateFirst;
  bool subQuadratic = fitExponent < 1.5;
  bool stateFlat = stateRatio > 0.9 && stateRatio < 1.1;
  std::printf(
      "fit: wall/step ~ n^%.2f (%s), per-rank state ratio 64->4096 %.3f "
      "(%s)\n",
      fitExponent, subQuadratic ? "sub-quadratic: PASS" : "FAIL",
      stateRatio, stateFlat ? "flat: PASS" : "FAIL");
  json.row("summary");
  json.num("fit_exponent", fitExponent);
  json.num("per_rank_state_ratio", stateRatio);
  json.num("fit_subquadratic", subQuadratic ? 1 : 0);
  json.num("per_rank_state_flat", stateFlat ? 1 : 0);
  json.write();
  return (subQuadratic && stateFlat) ? 0 : 1;
}
