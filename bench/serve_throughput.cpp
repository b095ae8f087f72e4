// Mixed-traffic throughput bench for the gradient-serving layer (DESIGN.md
// §14): requests/sec and host-side p50/p99 latency for three traffic mixes —
//   hot      2 pre-warmed tenant programs, 8 client threads
//   cold     every request first-touches a structurally distinct tenant
//   faulted  hot traffic with every 8th request carrying a kill-fault spec
// plus the naive one-job-per-call baseline (callDirect: same gradient work,
// no batching) on the hot mix. The summary row gates the tentpole claim:
// batched serving must sustain >= 2x the naive requests/sec on the hot mix.
//
// Unlike the figure benches, the latency/throughput numbers here are HOST
// time (steady_clock): the claim under test is about the serving pipeline's
// real overheads (per-run VM setup, carrier threads, cache lookups), which
// batching amortizes — virtual time is identical either way, by construction.
//
// PARAD_SERVE_SMOKE=1 shrinks the request counts for CI lanes and skips the
// >=2x gate (smoke hosts are noisy); the fault-isolation invariants are
// enforced in both modes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/interp/codegen.h"
#include "src/interp/lower.h"
#include "src/ir/builder.h"
#include "src/serve/serve.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

constexpr i64 kN = 24;  // per-request input length

/// Servable tenant: acc += sin(x[i]) * c + cos(x[i]) + x[i]^2 / 2. The
/// constant makes structurally distinct tenants (distinct fingerprints).
std::function<void(ir::Module&)> tenant(double c) {
  return [c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fadd(b.fmul(b.sin_(v), b.constF(c)), b.cos_(v)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

std::vector<double> inputFor(int j) {
  std::vector<double> x(static_cast<std::size_t>(kN));
  for (i64 k = 0; k < kN; ++k)
    x[static_cast<std::size_t>(k)] =
        0.125 + 0.0625 * static_cast<double>(j % 17) +
        0.25 * static_cast<double>(k);
  return x;
}

struct MixResult {
  int requests = 0;
  int ok = 0;
  int failed = 0;
  double wallNs = 0;
  double rps = 0;
  double p50Ns = 0, p99Ns = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// Drives `perClient` requests from each of `clients` threads through
/// submit() (pipelined: stamp, enqueue, then harvest), alternating across
/// `programs`. Every `faultEvery`-th request (0 = never) carries a
/// deterministic kill spec and must fail alone with a structured report.
MixResult driveBatched(serve::GradientService& svc,
                       const std::vector<std::string>& programs, int clients,
                       int perClient, int faultEvery) {
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(clients));
  std::atomic<int> ok{0}, failed{0}, badFailure{0};
  std::vector<std::thread> ts;
  std::uint64_t t0 = serve::nowNs();
  for (int c = 0; c < clients; ++c) {
    ts.emplace_back([&, c] {
      std::vector<std::pair<std::uint64_t, std::future<serve::Response>>>
          inflight;
      inflight.reserve(static_cast<std::size_t>(perClient));
      for (int j = 0; j < perClient; ++j) {
        int id = c * perClient + j;
        serve::Request req;
        req.program = programs[static_cast<std::size_t>(id) % programs.size()];
        req.inputs = inputFor(id);
        req.seed = 1.0 + 0.0625 * static_cast<double>(j % 8);
        bool faulty = faultEvery > 0 && id % faultEvery == 0;
        if (faulty) req.faultSpec = "seed=3,kill=1,killns=5";
        inflight.emplace_back(serve::nowNs(), svc.submit(std::move(req)));
      }
      for (int j = 0; j < perClient; ++j) {
        int id = c * perClient + j;
        bool faulty = faultEvery > 0 && id % faultEvery == 0;
        auto& [sentNs, fut] = inflight[static_cast<std::size_t>(j)];
        serve::Response r = fut.get();
        lats[static_cast<std::size_t>(c)].push_back(
            static_cast<double>(r.doneAtNs - sentNs));
        if (faulty) {
          // Isolation invariant: the fault-injected job fails alone, with a
          // structured RankKilled report, on its own VM.
          bool structured = !r.ok && r.isolated && r.failure != nullptr &&
                            r.failure->kind ==
                                psim::FailureReport::Kind::RankKilled;
          (structured ? failed : badFailure)++;
        } else {
          (r.ok ? ok : badFailure)++;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  MixResult out;
  out.wallNs = static_cast<double>(serve::nowNs() - t0);
  out.requests = clients * perClient;
  out.ok = ok.load();
  out.failed = failed.load();
  if (badFailure.load() > 0) {
    std::fprintf(stderr,
                 "serve_throughput: %d requests violated the isolation/"
                 "success invariants\n",
                 badFailure.load());
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& v : lats) all.insert(all.end(), v.begin(), v.end());
  out.p50Ns = percentile(all, 0.50);
  out.p99Ns = percentile(all, 0.99);
  out.rps = static_cast<double>(out.requests) / (out.wallNs * 1e-9);
  return out;
}

/// The naive baseline: same clients, same requests, one synchronous
/// callDirect (own VM, unbatched gradient) per request.
MixResult driveNaive(serve::GradientService& svc,
                     const std::vector<std::string>& programs, int clients,
                     int perClient) {
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(clients));
  std::atomic<int> ok{0};
  std::vector<std::thread> ts;
  std::uint64_t t0 = serve::nowNs();
  for (int c = 0; c < clients; ++c) {
    ts.emplace_back([&, c] {
      for (int j = 0; j < perClient; ++j) {
        int id = c * perClient + j;
        serve::Request req;
        req.program = programs[static_cast<std::size_t>(id) % programs.size()];
        req.inputs = inputFor(id);
        req.seed = 1.0 + 0.0625 * static_cast<double>(j % 8);
        std::uint64_t sent = serve::nowNs();
        serve::Response r = svc.callDirect(req);
        lats[static_cast<std::size_t>(c)].push_back(
            static_cast<double>(r.doneAtNs - sent));
        if (r.ok) ok++;
      }
    });
  }
  for (auto& t : ts) t.join();
  MixResult out;
  out.wallNs = static_cast<double>(serve::nowNs() - t0);
  out.requests = clients * perClient;
  out.ok = ok.load();
  std::vector<double> all;
  for (auto& v : lats) all.insert(all.end(), v.begin(), v.end());
  out.p50Ns = percentile(all, 0.50);
  out.p99Ns = percentile(all, 0.99);
  out.rps = static_cast<double>(out.requests) / (out.wallNs * 1e-9);
  return out;
}

void emitRow(bench::BenchJson& json, const std::string& name,
             const MixResult& r, const serve::ServiceStats& st) {
  // Cache counters are read from the process-wide caches themselves.
  const interp::ProgramCache& pc = interp::ProgramCache::global();
  const interp::CodegenCounters cg = interp::CodegenCache::global().counters();
  json.row(name);
  json.num("requests", r.requests);
  json.num("ok", r.ok);
  json.num("failed", r.failed);
  json.num("wall_ns", r.wallNs);
  json.num("requests_per_sec", r.rps);
  json.num("p50_latency_ns", r.p50Ns);
  json.num("p99_latency_ns", r.p99Ns);
  json.num("batches", static_cast<double>(st.batches));
  json.num("batched_requests", static_cast<double>(st.batchedRequests));
  json.num("max_batch_observed", static_cast<double>(st.maxBatchObserved));
  json.num("isolated_runs", static_cast<double>(st.isolatedRuns));
  json.num("batch_fallbacks", static_cast<double>(st.batchFallbacks));
  json.num("cold_compiles", static_cast<double>(st.coldCompiles));
  json.num("program_cache_hits", static_cast<double>(pc.hits()));
  json.num("program_cache_misses", static_cast<double>(pc.misses()));
  json.num("codegen_compiles", static_cast<double>(cg.compiles));
  // Robustness telemetry (DESIGN.md §15): shedding, deadlines, retries,
  // breaker activity, and the byte-bounded cache evictions.
  json.num("shed_overload", static_cast<double>(st.shedOverload));
  json.num("shed_rate_limit", static_cast<double>(st.shedRate));
  json.num("shed_inflight", static_cast<double>(st.shedInflight));
  json.num("deadline_expired", static_cast<double>(st.deadlineExpired));
  json.num("retries", static_cast<double>(st.retries));
  json.num("breaker_opens", static_cast<double>(st.breakerOpens));
  json.num("program_evictions", static_cast<double>(st.programEvictions));
  json.num("registry_bytes", static_cast<double>(st.registryBytes));
  json.num("program_cache_evictions", static_cast<double>(pc.evictions()));
  json.num("codegen_evictions", static_cast<double>(cg.diskEvictions));
  std::printf(
      "%-12s %6d req  %9.0f req/s  p50 %8.0f ns  p99 %9.0f ns  "
      "(%d ok, %d faulted, %llu batches, max batch %llu)\n",
      name.c_str(), r.requests, r.rps, r.p50Ns, r.p99Ns, r.ok, r.failed,
      (unsigned long long)st.batches, (unsigned long long)st.maxBatchObserved);
}

// ---------------------------------------------------------------------------
// Overload mix: offered load far past service capacity against a tiny
// request queue. The robustness claim under test (DESIGN.md §15): the
// service sheds the excess with structured Overload errors instead of
// blocking producers or growing an unbounded backlog, deadline-doomed jobs
// are answered with structured Deadline reports, and the jobs it DOES admit
// keep a bounded p99 (the queue, not the client, absorbs the overload).

struct OverloadResult {
  int requests = 0;
  int ok = 0;             // admitted clean jobs that succeeded (goodput)
  int shed = 0;           // structured Overload rejections
  int deadlineHits = 0;   // structured Deadline rejections
  int transientFailed = 0;  // fault-injected jobs (retried, then RankKilled)
  double wallNs = 0;
  double offeredRps = 0, goodputRps = 0, shedRate = 0;
  double p50AdmittedNs = 0, p99AdmittedNs = 0;
};

OverloadResult driveOverload(serve::GradientService& svc,
                             const std::vector<std::string>& programs,
                             int clients, int perClient) {
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(clients));
  std::atomic<int> ok{0}, shed{0}, deadline{0}, transient{0}, bad{0};
  std::atomic<std::uint64_t> submitEnd{0};
  std::vector<std::thread> ts;
  std::uint64_t t0 = serve::nowNs();
  for (int c = 0; c < clients; ++c) {
    ts.emplace_back([&, c] {
      std::vector<std::pair<std::uint64_t, std::future<serve::Response>>>
          inflight;
      inflight.reserve(static_cast<std::size_t>(perClient));
      for (int j = 0; j < perClient; ++j) {
        int id = c * perClient + j;
        serve::Request req;
        req.program = programs[static_cast<std::size_t>(id) % programs.size()];
        req.inputs = inputFor(id);
        if (j % 7 == 3) req.deadlineMs = 1e-6;  // doomed: expires in queue
        if (j % 11 == 5) {
          // Transient-looking fault that every retry re-draws (kill=1 kills
          // attempt 0 and attempt 1 alike): exercises the retry machinery
          // under load with a deterministic outcome.
          req.faultSpec = "seed=" + std::to_string(id) + ",kill=1,killns=5,retry=0";
          req.retryMax = 1;
        }
        inflight.emplace_back(serve::nowNs(), svc.submit(std::move(req)));
      }
      // Offered load is measured over the submission window (the burst the
      // service had to absorb or shed), not the harvest tail.
      std::uint64_t done = serve::nowNs();
      std::uint64_t prev = submitEnd.load();
      while (prev < done && !submitEnd.compare_exchange_weak(prev, done)) {
      }
      for (auto& [sentNs, fut] : inflight) {
        serve::Response r = fut.get();
        if (r.ok) {
          lats[static_cast<std::size_t>(c)].push_back(
              static_cast<double>(r.doneAtNs - sentNs));
          ok++;
          continue;
        }
        using Kind = psim::FailureReport::Kind;
        auto died = [&](Kind k) {
          return r.failure != nullptr && r.failure->kind == k;
        };
        if (r.refusal == serve::Refusal::Overload) {
          shed++;
        } else if (r.refusal == serve::Refusal::Deadline ||
                   died(Kind::Deadline)) {
          deadline++;
        } else if (died(Kind::RankKilled)) {
          transient++;
        } else {
          bad++;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  OverloadResult out;
  out.wallNs = static_cast<double>(serve::nowNs() - t0);
  out.requests = clients * perClient;
  out.ok = ok.load();
  out.shed = shed.load();
  out.deadlineHits = deadline.load();
  out.transientFailed = transient.load();
  if (bad.load() > 0 ||
      out.ok + out.shed + out.deadlineHits + out.transientFailed !=
          out.requests) {
    std::fprintf(stderr,
                 "serve_throughput: %d overload responses lacked a "
                 "structured failure classification\n",
                 bad.load());
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& v : lats) all.insert(all.end(), v.begin(), v.end());
  out.p50AdmittedNs = percentile(all, 0.50);
  out.p99AdmittedNs = percentile(all, 0.99);
  double submitWindowNs =
      static_cast<double>(std::max<std::uint64_t>(submitEnd.load() - t0, 1));
  out.offeredRps = static_cast<double>(out.requests) / (submitWindowNs * 1e-9);
  out.goodputRps = static_cast<double>(out.ok) / (out.wallNs * 1e-9);
  out.shedRate =
      static_cast<double>(out.shed) / static_cast<double>(out.requests);
  return out;
}

void BM_ServeHotBatch(benchmark::State& state) {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.maxBatch = 8;
  serve::GradientService svc(cfg);
  svc.registerProgram("t0", tenant(1.25), "f", kN);
  for (auto _ : state) {
    MixResult r = driveBatched(svc, {"t0"}, 2, 8, 0);
    benchmark::DoNotOptimize(r.rps);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ServeHotBatch);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const char* smokeEnv = std::getenv("PARAD_SERVE_SMOKE");
  const bool smoke = smokeEnv != nullptr && *smokeEnv && *smokeEnv != '0';
  const int clients = 8;
  const int perClient = smoke ? 8 : 64;
  const int coldTenants = smoke ? 4 : 16;

  bench::header(
      "serve_throughput",
      "multi-tenant gradient serving: batched pipeline vs one-job-per-call",
      "batched >= 2x naive requests/sec on the hot mix at 8 client threads; "
      "faulted jobs fail alone, batch-mates unaffected");

  bench::BenchJson json("serve_throughput");

  serve::ServeConfig cfg;
  cfg.maxBatch = 16;
  cfg.maxDelayUs = 200.0;

  // ---- hot mix: 2 warm tenants, batched pipeline vs naive baseline ----
  double rpsBatched = 0, rpsNaive = 0, p99Uncontended = 0;
  {
    serve::GradientService svc(cfg);
    svc.registerProgram("hot_a", tenant(1.25), "f", kN);
    svc.registerProgram("hot_b", tenant(4.75), "f", kN);
    // Warm both tenants (gradient generation + lowering) off the clock, and
    // spot-check the batched path against the single-shot path bit-for-bit.
    serve::Request probe;
    probe.program = "hot_a";
    probe.inputs = inputFor(3);
    serve::Response direct = svc.callDirect(probe);
    serve::Response batched = svc.call(probe);
    if (!direct.ok || !batched.ok || direct.gradient != batched.gradient ||
        direct.primal != batched.primal) {
      std::fprintf(stderr, "serve_throughput: batched/naive value mismatch\n");
      return 1;
    }
    probe.program = "hot_b";
    (void)svc.callDirect(probe);

    MixResult hot =
        driveBatched(svc, {"hot_a", "hot_b"}, clients, perClient, 0);
    rpsBatched = hot.rps;
    p99Uncontended = hot.p99Ns;
    emitRow(json, "hot_batched", hot, svc.stats());

    MixResult naive = driveNaive(svc, {"hot_a", "hot_b"}, clients, perClient);
    rpsNaive = naive.rps;
    emitRow(json, "hot_naive", naive, svc.stats());
  }

  // ---- cold mix: every tenant first-touched by its own traffic ----
  {
    serve::GradientService svc(cfg);
    std::vector<std::string> names;
    for (int k = 0; k < coldTenants; ++k) {
      names.push_back("cold_" + std::to_string(k));
      svc.registerProgram(names.back(), tenant(20.0 + k), "f", kN);
    }
    MixResult cold = driveBatched(svc, names, clients,
                                  std::max(1, perClient / 4), 0);
    emitRow(json, "cold", cold, svc.stats());
    serve::ServiceStats st = svc.stats();
    if (st.coldCompiles != static_cast<std::uint64_t>(coldTenants)) {
      std::fprintf(stderr,
                   "serve_throughput: expected %d cold compiles, saw %llu\n",
                   coldTenants, (unsigned long long)st.coldCompiles);
      return 1;
    }
  }

  // ---- faulted mix: hot traffic with every 8th request fault-injected ----
  {
    serve::GradientService svc(cfg);
    svc.registerProgram("hot_a", tenant(1.25), "f", kN);
    svc.registerProgram("hot_b", tenant(4.75), "f", kN);
    MixResult faulted =
        driveBatched(svc, {"hot_a", "hot_b"}, clients, perClient, 8);
    emitRow(json, "faulted", faulted, svc.stats());
    int expectFaults = (clients * perClient + 7) / 8;
    if (faulted.failed != expectFaults ||
        faulted.ok != faulted.requests - expectFaults) {
      std::fprintf(stderr,
                   "serve_throughput: fault isolation mismatch "
                   "(%d failed, expected %d of %d)\n",
                   faulted.failed, expectFaults, faulted.requests);
      return 1;
    }
  }

  // ---- overload mix: 4x the client pool against a 64-slot queue ----
  // Offered load is several times the hot-mix goodput (submission is far
  // faster than service); the gates assert structured shedding and that the
  // tiny queue keeps admitted-job p99 within 2x the uncontended hot run.
  bool overloadGate = true;
  {
    serve::ServeConfig ocfg = cfg;
    ocfg.queueCapacity = 64;
    serve::GradientService svc(ocfg);
    svc.registerProgram("hot_a", tenant(1.25), "f", kN);
    svc.registerProgram("hot_b", tenant(4.75), "f", kN);
    serve::Request probe;
    probe.program = "hot_a";
    probe.inputs = inputFor(3);
    (void)svc.callDirect(probe);
    probe.program = "hot_b";
    (void)svc.callDirect(probe);

    OverloadResult ov =
        driveOverload(svc, {"hot_a", "hot_b"}, clients * 4, perClient);
    serve::ServiceStats st = svc.stats();
    json.row("overload");
    json.num("requests", ov.requests);
    json.num("ok", ov.ok);
    json.num("shed", ov.shed);
    json.num("deadline_hits", ov.deadlineHits);
    json.num("transient_failed", ov.transientFailed);
    json.num("wall_ns", ov.wallNs);
    json.num("offered_rps", ov.offeredRps);
    json.num("goodput_rps", ov.goodputRps);
    json.num("shed_rate", ov.shedRate);
    json.num("overload_factor",
             rpsBatched > 0 ? ov.offeredRps / rpsBatched : 0);
    json.num("p50_admitted_ns", ov.p50AdmittedNs);
    json.num("p99_admitted_ns", ov.p99AdmittedNs);
    json.num("p99_uncontended_ns", p99Uncontended);
    json.num("retries", static_cast<double>(st.retries));
    json.num("shed_overload", static_cast<double>(st.shedOverload));
    json.num("deadline_expired", static_cast<double>(st.deadlineExpired));
    std::printf(
        "overload     %6d req  %9.0f offered/s  %9.0f goodput/s  "
        "shed %5.1f%%  dl %d  p99adm %9.0f ns\n",
        ov.requests, ov.offeredRps, ov.goodputRps, 100.0 * ov.shedRate,
        ov.deadlineHits, ov.p99AdmittedNs);

    if (!smoke) {
      bool shedOk = ov.shed > 0;
      bool dlOk = ov.deadlineHits > 0;
      bool p99Ok = ov.p99AdmittedNs <= 2.0 * p99Uncontended;
      bool loadOk = rpsBatched > 0 && ov.offeredRps >= 4.0 * rpsBatched;
      overloadGate = shedOk && dlOk && p99Ok && loadOk;
      json.num("overload_gate", overloadGate ? 1 : 0);
      if (!overloadGate)
        std::fprintf(stderr,
                     "serve_throughput: overload gate failed (shed %d, "
                     "deadline hits %d, p99 admitted %.0f vs uncontended "
                     "%.0f ns)\n",
                     ov.shed, ov.deadlineHits, ov.p99AdmittedNs,
                     p99Uncontended);
    }
  }

  double speedup = rpsNaive > 0 ? rpsBatched / rpsNaive : 0;
  bool gate = speedup >= 2.0;
  std::printf("batched vs naive (hot): %.2fx %s\n", speedup,
              smoke ? "(smoke: gate not enforced)"
                    : (gate ? "(>=2x: PASS)" : "(>=2x: FAIL)"));
  json.row("summary");
  json.num("clients", clients);
  json.num("per_client", perClient);
  json.num("smoke", smoke ? 1 : 0);
  json.num("rps_batched_hot", rpsBatched);
  json.num("rps_naive_hot", rpsNaive);
  json.num("batched_vs_naive_speedup", speedup);
  json.num("speedup_gate_2x", gate ? 1 : 0);
  json.write();
  return (smoke || (gate && overloadGate)) ? 0 : 1;
}
