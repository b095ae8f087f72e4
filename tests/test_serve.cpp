// Gradient-as-a-service pipeline (DESIGN.md §14): batching, bit-exactness
// against single-shot gradients on every engine, fault and bad-input
// isolation, cross-tenant fingerprint sharing, admission errors, and the
// ProgramCache under concurrent hammering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/serve/queue.h"
#include "src/serve/serve.h"
#include "tests/test_util.h"

namespace parad {
namespace {

using ir::Type;
using ir::Value;

// ---------------------------------------------------------------------------
// Servable builders (canonical signature f(x: ptr<f64>, n: i64) -> f64).

/// acc += sin(x[i]) * c + x[i]^2 / 2 over all i. The constant keeps
/// structurally-distinct tenants apart (distinct fingerprints) on demand.
std::function<void(ir::Module&)> servable(double c) {
  return [c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fmul(b.sin_(v), b.constF(c)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

/// acc += x[i] * a + c over all i: two constants whose signs or scales can
/// be edited together.
std::function<void(ir::Module&)> affine(double a, double c) {
  return [a, c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), b.param(1), [&](Value i) {
      auto t = b.fadd(b.fmul(b.load(x, i), b.constF(a)), b.constF(c));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

/// x[ftoi(x[0])] + sum x[i]^2 — the leading element is used as an index, so
/// one poisoned input (x[0] far out of range) traps the whole run.
void buildIndexed(ir::Module& mod) {
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.load(x, b.ftoi(b.load(x, b.constI(0)))));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), b.fmul(v, v)));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
}

/// Single-shot oracle: the gradient of `build`'s function at x, computed on
/// a fresh module with the exact GradConfig the serving layer uses.
std::vector<double> oracleGrad(const std::function<void(ir::Module&)>& build,
                               const std::vector<double>& x, double seed,
                               double* primalOut = nullptr) {
  ir::Module mod;
  build(mod);
  return test::adGradScalarFn(mod, "f", x, {}, /*threads=*/1, seed, primalOut);
}

std::vector<double> inputFor(int j, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k)
    x[k] = 0.25 + 0.125 * static_cast<double>(j) +
           0.5 * static_cast<double>(k);
  return x;
}

// ---------------------------------------------------------------------------
// Bounded queue.

TEST(ServeQueue, FifoBackpressureAndClose) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  // A full queue blocks the producer until a consumer makes room.
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.pop().value(), 1);
  });
  EXPECT_TRUE(q.push(3));
  consumer.join();
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  // popFor times out empty-handed with the queue still open.
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(1)), std::nullopt);
  EXPECT_FALSE(q.closed());
  // close() rejects pushes but drains what is already queued.
  EXPECT_TRUE(q.push(4));
  q.close();
  EXPECT_FALSE(q.push(5));
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// Bit-exactness: batched serving vs single-shot gradient().

TEST(Serve, BitExactVsSingleShot) {
  constexpr std::size_t kN = 6;
  for (const char* engine : {"exec", "codegen"}) {
    for (int B : {1, 4, 32}) {
      serve::ServeConfig cfg;
      cfg.workers = 2;
      cfg.maxBatch = B;
      cfg.maxDelayUs = 5e6;  // flush strictly on maxBatch in this test
      serve::GradientService svc(cfg);
      svc.registerProgram("poly", servable(1.75), "f", kN);

      std::vector<std::future<serve::Response>> futs;
      for (int j = 0; j < B; ++j) {
        serve::Request req;
        req.program = "poly";
        req.inputs = inputFor(j, kN);
        req.seed = 1.0 + 0.25 * j;
        req.engine = engine;
        futs.push_back(svc.submit(std::move(req)));
      }
      for (int j = 0; j < B; ++j) {
        serve::Response r = futs[static_cast<std::size_t>(j)].get();
        ASSERT_TRUE(r.ok) << engine << " B=" << B << " j=" << j << ": "
                          << r.error;
        EXPECT_EQ(r.batchSize, B);
        EXPECT_FALSE(r.isolated);
        double wantPrimal = 0;
        std::vector<double> want = oracleGrad(
            servable(1.75), inputFor(j, kN), 1.0 + 0.25 * j, &wantPrimal);
        EXPECT_EQ(r.primal, wantPrimal) << engine << " B=" << B << " j=" << j;
        ASSERT_EQ(r.gradient.size(), kN);
        for (std::size_t k = 0; k < kN; ++k)
          EXPECT_EQ(r.gradient[k], want[k])
              << engine << " B=" << B << " j=" << j << " k=" << k;
      }
      serve::ServiceStats st = svc.stats();
      EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(B));
      EXPECT_EQ(st.completed, static_cast<std::uint64_t>(B));
      EXPECT_EQ(st.failed, 0u);
      EXPECT_EQ(st.maxBatchObserved, static_cast<std::uint64_t>(B));
    }
  }
}

// ---------------------------------------------------------------------------
// Isolation.

TEST(Serve, BadInputFailsAloneBatchMatesSurvive) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 8;
  cfg.maxDelayUs = 5e6;
  serve::GradientService svc(cfg);
  svc.registerProgram("indexed", buildIndexed, "f", kN);

  std::vector<std::future<serve::Response>> futs;
  for (int j = 0; j < 8; ++j) {
    serve::Request req;
    req.program = "indexed";
    // Good requests index in range; request 3 carries a poisoned x[0] that
    // sends the load far out of bounds and traps its VM.
    req.inputs = {j == 3 ? 1e9 : 1.0 + (j % 3), 0.5 + j, 2.0, -1.5};
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int j = 0; j < 8; ++j) {
    serve::Response r = futs[static_cast<std::size_t>(j)].get();
    if (j == 3) {
      EXPECT_FALSE(r.ok);
      EXPECT_FALSE(r.error.empty());
      EXPECT_TRUE(r.isolated);
    } else {
      ASSERT_TRUE(r.ok) << "j=" << j << ": " << r.error;
      EXPECT_TRUE(r.isolated);  // served by the batch-failure fallback
      std::vector<double> x = {1.0 + (j % 3), 0.5 + j, 2.0, -1.5};
      std::vector<double> want = oracleGrad(
          [](ir::Module& m) { buildIndexed(m); }, x, 1.0);
      ASSERT_EQ(r.gradient.size(), kN);
      for (std::size_t k = 0; k < kN; ++k)
        EXPECT_EQ(r.gradient[k], want[k]) << "j=" << j << " k=" << k;
    }
  }
  EXPECT_GE(svc.stats().batchFallbacks, 1u);

  // The service (and the process-wide caches) stay healthy afterwards.
  serve::Request again;
  again.program = "indexed";
  again.inputs = {1.0, 2.0, 3.0, 4.0};
  serve::Response r = svc.callDirect(again);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(Serve, FaultedRequestFailsAloneWithStructuredReport) {
  constexpr std::size_t kN = 6;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 4;
  cfg.maxDelayUs = 5e6;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(0.5), "f", kN);

  std::vector<std::future<serve::Response>> futs;
  for (int j = 0; j < 4; ++j) {
    serve::Request req;
    req.program = "poly";
    req.inputs = inputFor(j, kN);
    if (j == 2) req.faultSpec = "seed=3,kill=1,killns=5";
    futs.push_back(svc.submit(std::move(req)));
  }
  for (int j = 0; j < 4; ++j) {
    serve::Response r = futs[static_cast<std::size_t>(j)].get();
    if (j == 2) {
      EXPECT_FALSE(r.ok);
      EXPECT_TRUE(r.isolated);
      ASSERT_NE(r.failure, nullptr);
      EXPECT_EQ(r.failure->kind, psim::FailureReport::Kind::RankKilled);
    } else {
      // Batch-mates of the fault-injected job are untouched: batched run,
      // bit-exact values.
      ASSERT_TRUE(r.ok) << "j=" << j << ": " << r.error;
      EXPECT_FALSE(r.isolated);
      std::vector<double> want = oracleGrad(servable(0.5), inputFor(j, kN),
                                            1.0);
      for (std::size_t k = 0; k < kN; ++k)
        EXPECT_EQ(r.gradient[k], want[k]) << "j=" << j << " k=" << k;
    }
  }
  serve::ServiceStats st = svc.stats();
  EXPECT_GE(st.isolatedRuns, 1u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_EQ(st.batchedRequests, 3u);
  EXPECT_EQ(st.failed, 1u);
}

// ---------------------------------------------------------------------------
// Cold/hot paths and cross-tenant fingerprint sharing.

TEST(Serve, ColdThenHotSurfacesCacheCounters) {
  constexpr std::size_t kN = 5;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  // The lowered-closure cache belongs to the exec engine; pin it so the
  // counters are checked under any PARAD_ENGINE (the tree walker has none).
  cfg.engine = "exec";
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(3.25), "f", kN);

  serve::Request req;
  req.program = "poly";
  req.inputs = inputFor(0, kN);
  const interp::ProgramCache& pc = interp::ProgramCache::global();
  serve::Response r1 = svc.call(req);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_TRUE(r1.coldCompile);
  const std::uint64_t hitsAfterCold = pc.hits();
  serve::Response r2 = svc.call(req);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_FALSE(r2.coldCompile);
  EXPECT_EQ(r1.primal, r2.primal);

  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.coldCompiles, 1u);
  // The hot request re-looked-up the lowered closure: the cache's counters
  // must have moved.
  EXPECT_GT(pc.hits(), hitsAfterCold);
  EXPECT_GT(pc.misses(), 0u);
}

TEST(Serve, SameFingerprintTenantsShareProgramAndBatches) {
  constexpr std::size_t kN = 6;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 2;
  cfg.maxDelayUs = 5e6;
  serve::GradientService svc(cfg);
  // alice and bob build structurally identical IR: one prepared program.
  svc.registerProgram("alice", servable(2.5), "f", kN);
  svc.registerProgram("bob", servable(2.5), "f", kN);
  svc.registerProgram("carol", servable(9.5), "f", kN);  // distinct tenant

  serve::Request ra, rb;
  ra.program = "alice";
  ra.inputs = inputFor(0, kN);
  rb.program = "bob";
  rb.inputs = inputFor(1, kN);
  auto fa = svc.submit(ra);
  auto fb = svc.submit(rb);
  serve::Response a = fa.get(), b = fb.get();
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  // Coalesced across tenant names into one batch of 2.
  EXPECT_EQ(a.batchSize, 2);
  EXPECT_EQ(b.batchSize, 2);
  EXPECT_EQ(svc.stats().coldCompiles, 1u);

  // Two carol requests so her batch flushes on maxBatch, not max-delay.
  serve::Request rc;
  rc.program = "carol";
  rc.inputs = inputFor(2, kN);
  rc.seed = 2.0;
  serve::Request rc2 = rc;
  rc2.seed = 3.0;
  auto fc = svc.submit(rc);
  auto fc2 = svc.submit(rc2);
  serve::Response c = fc.get(), c2 = fc2.get();
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_TRUE(c2.ok) << c2.error;
  EXPECT_EQ(svc.stats().coldCompiles, 2u);
  std::vector<double> want = oracleGrad(servable(9.5), inputFor(2, kN), 2.0);
  for (std::size_t k = 0; k < kN; ++k) EXPECT_EQ(c.gradient[k], want[k]);
}

TEST(Serve, ConstantSignAndScaleEditsAreNotShared) {
  // Programs that differ only in the signs of two constants, or in two
  // swapped power-of-two constants, are different tenants: sharing would
  // answer one tenant with the other's gradient.
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  serve::GradientService svc(cfg);
  const std::vector<std::pair<double, double>> consts = {
      {2.0, 3.0}, {-2.0, -3.0}, {0.5, 2.0}, {2.0, 0.5}};
  for (std::size_t k = 0; k < consts.size(); ++k)
    svc.registerProgram("t" + std::to_string(k),
                        affine(consts[k].first, consts[k].second), "f", kN);
  for (std::size_t k = 0; k < consts.size(); ++k) {
    SCOPED_TRACE(k);
    serve::Request req;
    req.program = "t" + std::to_string(k);
    req.inputs = inputFor(int(k), kN);
    serve::Response r = svc.call(req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.coldCompile);
    std::vector<double> want =
        oracleGrad(affine(consts[k].first, consts[k].second), req.inputs, 1.0);
    ASSERT_EQ(r.gradient.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(r.gradient[i], want[i]);
  }
  EXPECT_EQ(svc.stats().coldCompiles, consts.size());
}

// ---------------------------------------------------------------------------
// Admission errors.

TEST(Serve, AdmissionRejectsStructurally) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(1.0), "f", kN);

  serve::Request unknown;
  unknown.program = "nope";
  unknown.inputs = inputFor(0, kN);
  serve::Response r = svc.call(unknown);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown program 'nope'"), std::string::npos)
      << r.error;

  serve::Request shortInput;
  shortInput.program = "poly";
  shortInput.inputs = {1.0};
  r = svc.call(shortInput);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("expects 4 inputs, got 1"), std::string::npos)
      << r.error;

  // Engine admission reuses the registry's strict spec rejection verbatim.
  serve::Request badEngine;
  badEngine.program = "poly";
  badEngine.inputs = inputFor(0, kN);
  badEngine.engine = "exe";
  r = svc.call(badEngine);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error,
            "engine: unknown backend 'exe' (did you mean 'exec'?) "
            "(backends: codegen, exec, tree)");

  serve::Request badFaults;
  badFaults.program = "poly";
  badFaults.inputs = inputFor(0, kN);
  badFaults.faultSpec = "bogus=1";
  r = svc.call(badFaults);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  // Failures above never consumed a VM run or poisoned the service.
  serve::Request good;
  good.program = "poly";
  good.inputs = inputFor(0, kN);
  r = svc.call(good);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(svc.stats().failed, 4u);
}

// ---------------------------------------------------------------------------
// Concurrent clients.

TEST(Serve, ManyClientThreadsMixedTenants) {
  constexpr std::size_t kN = 6;
  constexpr int kClients = 8, kPerClient = 12;
  serve::ServeConfig cfg;
  cfg.workers = 4;
  cfg.maxBatch = 8;
  cfg.maxDelayUs = 500.0;
  serve::GradientService svc(cfg);
  svc.registerProgram("a", servable(1.25), "f", kN);
  svc.registerProgram("b", servable(4.75), "f", kN);

  std::atomic<int> okCount{0}, badCount{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < kPerClient; ++j) {
        serve::Request req;
        req.program = (t + j) % 2 == 0 ? "a" : "b";
        req.inputs = inputFor(t * kPerClient + j, kN);
        req.seed = 1.0 + 0.0625 * j;
        serve::Response r = svc.call(std::move(req));
        double c = (t + j) % 2 == 0 ? 1.25 : 4.75;
        std::vector<double> want =
            oracleGrad(servable(c), inputFor(t * kPerClient + j, kN),
                       1.0 + 0.0625 * j);
        bool good = r.ok && r.gradient.size() == kN;
        for (std::size_t k = 0; good && k < kN; ++k)
          good = r.gradient[k] == want[k];
        (good ? okCount : badCount)++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(okCount.load(), kClients * kPerClient);
  EXPECT_EQ(badCount.load(), 0);
  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  // Under 8 concurrent clients at least some coalescing must have happened.
  EXPECT_GT(st.batchedRequests, st.batches);
}

// ---------------------------------------------------------------------------
// ProgramCache under concurrent hammering.

/// Like servable(), but the multiplier is a foldable const expression so
/// passes::cleanup() mutates the IR in place (shrinking it without changing
/// its value) — the refingerprint probe below depends on that.
ir::Module hammerModule(double c) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  auto scale = b.fadd(b.constF(c), b.constF(0.5));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    auto t = b.fadd(b.fmul(v, scale), b.fmul(v, v));
    b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

TEST(CacheConcurrency, HammerSharedAndDistinctFingerprints) {
  auto& cache = interp::ProgramCache::global();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();

  constexpr int kMods = 6, kThreads = 8, kIters = 200;
  std::deque<ir::Module> mods;  // address-stable: the cache keys by &module
  for (int k = 0; k < kMods; ++k)
    mods.push_back(hammerModule(10.0 + k));

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        ir::Module& mod = mods[static_cast<std::size_t>((t + i) % kMods)];
        auto xm = cache.lookup(mod, mod.get("f"));
        if (xm == nullptr || xm->programs.empty() ||
            xm->programs[0].name != "f")
          errors++;
      }
    });
  }
  // A concurrent invalidator sweeping the very name every thread hammers.
  std::thread invalidator([&] {
    while (!stop.load()) {
      cache.invalidate("f");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(errors.load(), 0);
  // Every lookup resolved to a hit or a miss; the invalidator forced some
  // relowering (misses) on top of the initial cold ones.
  EXPECT_GE((cache.hits() - h0) + (cache.misses() - m0),
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GE(cache.misses() - m0, static_cast<std::uint64_t>(kMods));

  // Pass-mutation refingerprinting still works after the storm: an in-place
  // IR rewrite yields a fresh closure (new fingerprint), not a stale hit.
  ir::Module& mod = mods[0];
  auto before = cache.lookup(mod, mod.get("f"));
  std::uint64_t fpBefore = before->programs[0].fingerprint;
  double want = test::evalScalarFn(mod, "f", inputFor(0, 6));
  passes::cleanup(mod, "f");
  auto after = cache.lookup(mod, mod.get("f"));
  EXPECT_NE(after->programs[0].fingerprint, fpBefore);
  EXPECT_EQ(test::evalScalarFn(mod, "f", inputFor(0, 6)), want);
}

// ---------------------------------------------------------------------------
// Robustness (DESIGN.md §15): strict knob parsing, deadlines, retries,
// admission control / load shedding, circuit breaker, bounded registries.

using test::EnvVar;

/// The knob-list tail of every unknown-knob error.
constexpr const char* kServeKnobList =
    " (knobs: PARAD_SERVE_BATCH, PARAD_SERVE_BREAKER, "
    "PARAD_SERVE_BREAKER_COOLDOWN_MS, PARAD_SERVE_BURST, "
    "PARAD_SERVE_CACHE_BYTES, PARAD_SERVE_CKPT_DIR, PARAD_SERVE_DEADLINE_MS, "
    "PARAD_SERVE_ENGINE, PARAD_SERVE_INFLIGHT, PARAD_SERVE_MAX_DELAY_US, "
    "PARAD_SERVE_QUEUE, PARAD_SERVE_RATE, PARAD_SERVE_RETRY, "
    "PARAD_SERVE_RETRY_BACKOFF_US, PARAD_SERVE_SMOKE, PARAD_SERVE_THREADS)";

std::string fromEnvError() {
  try {
    (void)serve::ServeConfig::fromEnv();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ServeConfigEnv, UnknownKnobFailsWithDidYouMean) {
  EnvVar typo("PARAD_SERVE_DEDLINE_MS", "5");
  EXPECT_EQ(fromEnvError(),
            "serve: unknown environment knob 'PARAD_SERVE_DEDLINE_MS' (did "
            "you mean 'PARAD_SERVE_DEADLINE_MS'?)" +
                std::string(kServeKnobList));
}

TEST(ServeConfigEnv, UnknownKnobFarFromEverythingListsTheKnobs) {
  EnvVar bogus("PARAD_SERVE_WIBBLE_WOBBLE", "1");
  // Too far from any real knob for a did-you-mean; the full list is shown.
  EXPECT_EQ(fromEnvError(),
            "serve: unknown environment knob 'PARAD_SERVE_WIBBLE_WOBBLE'" +
                std::string(kServeKnobList));
}

TEST(ServeConfigEnv, MalformedAndNegativeValuesFailLoudly) {
  {
    EnvVar bad("PARAD_SERVE_DEADLINE_MS", "fast");
    std::string msg = fromEnvError();
    EXPECT_NE(msg.find("serve: malformed PARAD_SERVE_DEADLINE_MS='fast' "
                       "(expected a number)"),
              std::string::npos)
        << msg;
  }
  {
    EnvVar neg("PARAD_SERVE_RETRY", "-1");
    std::string msg = fromEnvError();
    EXPECT_NE(
        msg.find("serve: PARAD_SERVE_RETRY must be non-negative, got '-1'"),
        std::string::npos)
        << msg;
  }
  {
    EnvVar trail("PARAD_SERVE_RATE", "10x");
    std::string msg = fromEnvError();
    EXPECT_NE(msg.find("malformed PARAD_SERVE_RATE='10x'"), std::string::npos)
        << msg;
  }
  // And a well-formed environment parses into the config verbatim.
  {
    EnvVar dl("PARAD_SERVE_DEADLINE_MS", "250");
    EnvVar rt("PARAD_SERVE_RETRY", "3");
    EnvVar rate("PARAD_SERVE_RATE", "100");
    EnvVar brk("PARAD_SERVE_BREAKER", "5");
    serve::ServeConfig cfg = serve::ServeConfig::fromEnv();
    EXPECT_EQ(cfg.deadlineMs, 250.0);
    EXPECT_EQ(cfg.retryMax, 3);
    EXPECT_EQ(cfg.ratePerSec, 100.0);
    EXPECT_EQ(cfg.breakerThreshold, 5);
  }
}

TEST(ServeConfigEnv, NonFiniteAndOutOfRangeValuesFailLoudly) {
  auto errorFor = [](const char* knob, const char* value) {
    EnvVar v(knob, value);
    return fromEnvError();
  };
  EXPECT_EQ(errorFor("PARAD_SERVE_THREADS", "1e10"),
            "serve: PARAD_SERVE_THREADS must be at most 2147483647, got "
            "'1e10'");
  EXPECT_EQ(errorFor("PARAD_SERVE_THREADS", "nan"),
            "serve: PARAD_SERVE_THREADS must be finite, got 'nan'");
  EXPECT_EQ(errorFor("PARAD_SERVE_QUEUE", "1.5"),
            "serve: PARAD_SERVE_QUEUE must be a non-negative integer, got "
            "'1.5'");
  EXPECT_EQ(errorFor("PARAD_SERVE_MAX_DELAY_US", "inf"),
            "serve: PARAD_SERVE_MAX_DELAY_US must be finite, got 'inf'");
  EXPECT_EQ(errorFor("PARAD_SERVE_MAX_DELAY_US", "1e16"),
            "serve: PARAD_SERVE_MAX_DELAY_US must be at most "
            "1000000000000000, got '1e16'");
  EXPECT_EQ(errorFor("PARAD_SERVE_DEADLINE_MS", "1e30"),
            "serve: PARAD_SERVE_DEADLINE_MS must be at most 1000000000000, "
            "got '1e30'");
  EXPECT_EQ(errorFor("PARAD_SERVE_RATE", "-inf"),
            "serve: PARAD_SERVE_RATE must be finite, got '-inf'");
  // The registry cap is a byte size like the other four byte caps.
  const std::string notBytes =
      "' is not a byte size (expected decimal digits, optionally followed by "
      "K, M or G)";
  EXPECT_EQ(errorFor("PARAD_SERVE_CACHE_BYTES", "1e30"),
            "PARAD_SERVE_CACHE_BYTES='1e30" + notBytes);
  EXPECT_EQ(errorFor("PARAD_SERVE_CACHE_BYTES", "1.5"),
            "PARAD_SERVE_CACHE_BYTES='1.5" + notBytes);
  EXPECT_EQ(errorFor("PARAD_SERVE_CACHE_BYTES", "99999999999999999999G"),
            "PARAD_SERVE_CACHE_BYTES='99999999999999999999G' overflows a byte "
            "size");
  EnvVar cap("PARAD_SERVE_CACHE_BYTES", "64M");
  EXPECT_EQ(serve::ServeConfig::fromEnv().registryCapacityBytes,
            std::size_t{64} << 20);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(ServeRobust, QueuedDeadlineExpiryIsStructuredAndSparesBatchMates) {
  constexpr std::size_t kN = 5;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 2;
  cfg.maxDelayUs = 5e6;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(1.5), "f", kN);

  serve::Request doomed;
  doomed.program = "poly";
  doomed.inputs = inputFor(0, kN);
  doomed.id = 4242;
  doomed.tenant = "acme";
  doomed.deadlineMs = 1e-6;  // 1ns: expired by the time admission sees it
  serve::Request fine;
  fine.program = "poly";
  fine.inputs = inputFor(1, kN);
  auto fd = svc.submit(doomed);
  // Two live batch-mates: the doomed job is rejected at admission (it never
  // joins a batch), so the pair below flushes on maxBatch, not max-delay.
  auto ff = svc.submit(fine);
  auto ff2 = svc.submit(fine);

  serve::Response rd = fd.get();
  EXPECT_FALSE(rd.ok);
  // No VM ever ran: the service refused the job itself, with the request's
  // attribution.
  EXPECT_EQ(rd.refusal, serve::Refusal::Deadline);
  EXPECT_EQ(rd.failure, nullptr);
  EXPECT_EQ(rd.error,
            "gradient service deadline: deadline expired in queue for "
            "program 'poly'\n  request 4242, tenant 'acme'");
  EXPECT_EQ(rd.requestId, 4242u);
  EXPECT_EQ(rd.tenant, "acme");

  serve::Response rf = ff.get();
  ASSERT_TRUE(rf.ok) << rf.error;
  ASSERT_TRUE(ff2.get().ok);
  std::vector<double> want = oracleGrad(servable(1.5), inputFor(1, kN), 1.0);
  for (std::size_t k = 0; k < kN; ++k) EXPECT_EQ(rf.gradient[k], want[k]);

  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.deadlineExpired, 1u);
  EXPECT_EQ(st.failed, 1u);
}

TEST(ServeRobust, RequestOptsOutOfServiceDefaultDeadline) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.deadlineMs = 1e-6;  // service default: everything expires instantly...
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(2.0), "f", kN);

  serve::Request doomed;
  doomed.program = "poly";
  doomed.inputs = inputFor(0, kN);
  serve::Response rd = svc.call(doomed);
  EXPECT_FALSE(rd.ok);
  EXPECT_EQ(rd.refusal, serve::Refusal::Deadline);

  serve::Request immortal;  // ...unless the request opts out explicitly.
  immortal.program = "poly";
  immortal.inputs = inputFor(0, kN);
  immortal.deadlineMs = -1;
  serve::Response ri = svc.call(immortal);
  ASSERT_TRUE(ri.ok) << ri.error;
  EXPECT_EQ(svc.stats().deadlineExpired, 1u);
}

TEST(ServeRobust, MidRunDeadlineCancelsJobWhileBatchMateSurvives) {
  // A job big enough that its VM run takes far longer than the deadline:
  // the host deadline monitor must cancel the batched run mid-flight, the
  // expired job dies with a structured Deadline report, and its batch-mate
  // is re-executed in isolation and still succeeds.
  constexpr std::size_t kN = 1u << 18;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 2;
  cfg.maxDelayUs = 5e6;
  serve::GradientService svc(cfg);
  svc.registerProgram("heavy", servable(0.75), "f", static_cast<i64>(kN));

  serve::Request doomed;
  doomed.program = "heavy";
  doomed.inputs = inputFor(0, kN);
  doomed.deadlineMs = 10.0;
  serve::Request fine;
  fine.program = "heavy";
  fine.inputs = inputFor(1, kN);
  auto fd = svc.submit(doomed);
  auto ff = svc.submit(fine);

  serve::Response rd = fd.get();
  EXPECT_FALSE(rd.ok);
  // The batch was cancelled at the deadline, so the doomed job's isolated
  // re-execution finds it expired and is refused before a VM run.
  EXPECT_EQ(rd.refusal, serve::Refusal::Deadline) << rd.error;
  EXPECT_EQ(rd.failure, nullptr);

  serve::Response rf = ff.get();
  ASSERT_TRUE(rf.ok) << rf.error;
  EXPECT_EQ(rf.gradient.size(), kN);

  serve::ServiceStats st = svc.stats();
  EXPECT_GE(st.deadlineExpired, 1u);
  EXPECT_EQ(st.failed, 1u);
}

TEST(ServeRobust, MidRunDeadlineRendersTheVmReportWithAttribution) {
  // The reference path arms the deadline just before the VM run, so a job
  // far slower than its deadline is cancelled mid-flight: the answer is the
  // VM's own Deadline report, attributed to the request.
  constexpr std::size_t kN = 1u << 18;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("heavy", servable(0.75), "f", static_cast<i64>(kN));

  serve::Request doomed;
  doomed.program = "heavy";
  doomed.inputs = inputFor(0, kN);
  doomed.deadlineMs = 2.0;
  doomed.id = 77;
  doomed.tenant = "acme";
  serve::Response rd = svc.callDirect(doomed);
  EXPECT_FALSE(rd.ok);
  ASSERT_NE(rd.failure, nullptr) << rd.error;
  EXPECT_EQ(rd.failure->kind, psim::FailureReport::Kind::Deadline);
  ASSERT_EQ(rd.failure->ranks.size(), 1u);
  // Only the cancel point is timing-dependent; everything around it is
  // pinned.
  const std::string& detail = rd.failure->detail;
  const std::string head = "run cancelled by host at rank 0, virtual time ";
  const std::string tail = "ns (deadline exceeded)";
  ASSERT_GT(detail.size(), head.size() + tail.size()) << detail;
  EXPECT_EQ(detail.substr(0, head.size()), head);
  EXPECT_EQ(detail.substr(detail.size() - tail.size()), tail);
  std::ostringstream clock;
  clock << std::fixed << std::setprecision(1) << rd.failure->ranks[0].clock;
  EXPECT_EQ(rd.error, "virtual machine deadline: " + detail +
                          "\n  request 77, tenant 'acme'\n  rank 0 @ " +
                          clock.str() + "ns: running, inbox depth 0");
}

TEST(ServeRobust, UnrepresentableDeadlineIsAnErrorWithoutAVmRun) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(2.0), "f", kN);

  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, const char*> cases[] = {
      {inf, "inf"},
      {-inf, "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {1e30, "1e+30"}};
  for (const auto& [ms, text] : cases) {
    SCOPED_TRACE(text);
    const std::string want = std::string("serve: deadline of ") + text +
                             " ms is out of range (at most 1000000000000 ms)";
    serve::Request req;
    req.program = "poly";
    req.inputs = inputFor(0, kN);
    req.deadlineMs = ms;
    serve::Response r = svc.call(req);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, want);
    EXPECT_EQ(r.refusal, serve::Refusal::None);
    EXPECT_EQ(r.failure, nullptr);
    serve::Response d = svc.callDirect(req);
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.error, want);
  }
  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.isolatedRuns + st.batches, 0u);
  EXPECT_EQ(st.failed, 4u);
  EXPECT_EQ(st.deadlineExpired, 0u);
}

// ---------------------------------------------------------------------------
// Retry of transient failures.

/// True when a single attempt (no retries) under this fault seed dies with a
/// RankKilled report — the probe the retry determinism test uses to pick a
/// seed pair where attempt 0 fails and attempt 1 (seed+1) survives.
bool attemptDies(serve::GradientService& svc, const std::string& engine,
                 std::uint64_t seed, std::size_t kN) {
  serve::Request req;
  req.program = "poly";
  req.inputs = inputFor(0, kN);
  req.engine = engine;
  req.faultSpec =
      "seed=" + std::to_string(seed) + ",kill=0.45,killns=5,retry=0";
  req.retryMax = 0;
  serve::Response r = svc.callDirect(req);
  if (r.ok) return false;
  EXPECT_NE(r.failure, nullptr) << r.error;
  return true;
}

TEST(ServeRobust, TransientFailureRetriedBitExactOnEveryEngine) {
  constexpr std::size_t kN = 5;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(3.0), "f", kN);

  for (const char* engine : {"exec", "tree", "codegen"}) {
    SCOPED_TRACE(engine);
    // Find a seed where the fault plan kills attempt 0 but spares attempt 1
    // (the retry offsets the seed by the attempt index — "fresh hardware").
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 256; ++s) {
      if (attemptDies(svc, engine, s, kN) &&
          !attemptDies(svc, engine, s + 1, kN)) {
        seed = s;
        break;
      }
    }
    ASSERT_NE(seed, 0u) << "no kill/survive seed pair found";

    // The clean single-shot oracle on the same engine.
    serve::Request clean;
    clean.program = "poly";
    clean.inputs = inputFor(0, kN);
    clean.engine = engine;
    serve::Response want = svc.callDirect(clean);
    ASSERT_TRUE(want.ok) << want.error;

    serve::ServiceStats before = svc.stats();
    serve::Request faulty = clean;
    faulty.faultSpec =
        "seed=" + std::to_string(seed) + ",kill=0.45,killns=5,retry=0";
    faulty.retryMax = 1;
    serve::Response r = svc.call(faulty);
    ASSERT_TRUE(r.ok) << r.error;
    // Exactly one retry was consumed, it is visible end to end, and the
    // retried gradient is bit-identical to the clean single-shot run.
    EXPECT_EQ(r.retries, 1);
    EXPECT_EQ(svc.stats().retries, before.retries + 1);
    EXPECT_EQ(r.primal, want.primal);
    ASSERT_EQ(r.gradient.size(), kN);
    for (std::size_t k = 0; k < kN; ++k)
      EXPECT_EQ(r.gradient[k], want.gradient[k]) << "k=" << k;
  }
}

TEST(ServeRobust, RetryBudgetExhaustedSurfacesTheLastFailure) {
  constexpr std::size_t kN = 5;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.retryBackoffUs = 1.0;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(3.0), "f", kN);

  serve::Request req;
  req.program = "poly";
  req.inputs = inputFor(0, kN);
  req.faultSpec = "seed=3,kill=1,killns=5,retry=0";  // kill=1: every attempt
  req.retryMax = 2;
  req.id = 31;
  req.tenant = "acme";
  req.engine = "exec";  // the kill is noticed at an engine-specific probe
  serve::Response r = svc.call(req);
  EXPECT_FALSE(r.ok);
  ASSERT_NE(r.failure, nullptr);
  EXPECT_EQ(r.failure->kind, psim::FailureReport::Kind::RankKilled);
  // The VM report with the request's attribution after its headline.
  EXPECT_EQ(r.error,
            "virtual machine rank killed: rank 0 killed at virtual time "
            "384.781ns; checkpointing is disabled (set ckpt_interval to "
            "recover)\n  request 31, tenant 'acme'\n  dead rank: 0, last "
            "checkpoint epoch: none\n  rank 0 @ 384.8ns: killed, inbox depth "
            "0");
  EXPECT_EQ(r.retries, 2);  // the whole budget was spent
  EXPECT_GE(svc.stats().retries, 2u);
}

// ---------------------------------------------------------------------------
// Admission control and load shedding.

TEST(ServeRobust, RateLimitShedsPerTenant) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.ratePerSec = 1e-6;  // one-token bucket that effectively never refills
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servable(1.0), "f", kN);

  serve::Request req;
  req.program = "poly";
  req.inputs = inputFor(0, kN);
  serve::Response r1 = svc.call(req);
  ASSERT_TRUE(r1.ok) << r1.error;  // spends tenant "poly"'s only token

  serve::Response r2 = svc.call(req);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.refusal, serve::Refusal::Overload);
  EXPECT_EQ(r2.failure, nullptr);
  EXPECT_EQ(r2.error,
            "gradient service overload: tenant 'poly' exceeded its rate "
            "limit (0.000001 req/s)\n  request 2, tenant 'poly'");

  // Buckets are per tenant: another tenant key on the same program passes.
  serve::Request other = req;
  other.tenant = "other-team";
  serve::Response r3 = svc.call(other);
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.tenant, "other-team");

  EXPECT_EQ(svc.stats().shedRate, 1u);
}

TEST(ServeRobust, InflightCapShedsPerTenant) {
  constexpr std::size_t kN = 1u << 14;  // slow enough to stay in flight
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.maxInflight = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("heavy", servable(1.0), "f", static_cast<i64>(kN));

  serve::Request req;
  req.program = "heavy";
  req.inputs = inputFor(0, kN);
  auto f1 = svc.submit(req);  // occupies tenant "heavy"'s single slot

  serve::Response r2 = svc.call(req);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.refusal, serve::Refusal::Overload);
  EXPECT_EQ(r2.failure, nullptr);
  EXPECT_EQ(r2.error,
            "gradient service overload: tenant 'heavy' has 1 requests in "
            "flight (inflight cap)\n  request 2, tenant 'heavy'");

  serve::Request other = req;
  other.tenant = "vip";
  auto f3 = svc.submit(other);  // distinct tenant: admitted

  serve::Response r1 = f1.get();
  ASSERT_TRUE(r1.ok) << r1.error;
  serve::Response r3 = f3.get();
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(svc.stats().shedInflight, 1u);

  // The slot freed when r1 completed: the tenant is admitted again.
  serve::Response r4 = svc.call(req);
  ASSERT_TRUE(r4.ok) << r4.error;
}

TEST(ServeRobust, FullQueueShedsOverloadInsteadOfBlocking) {
  constexpr std::size_t kN = 1u << 14;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.queueCapacity = 1;
  serve::GradientService svc(cfg);
  svc.registerProgram("heavy", servable(1.0), "f", static_cast<i64>(kN));

  // Flood until the first shed: the single worker is busy preparing/running
  // a heavy batch, the batcher blocks handing off the next one, the 1-slot
  // request queue fills, and the next submit must shed immediately (this
  // loop finishing at all is the no-blocking assertion). Stopping at the
  // first shed, not after a fixed count, keeps the test independent of how
  // fast the worker drains a warm program; the cap only bounds the loop.
  constexpr std::size_t kMaxJobs = 1024;
  std::vector<std::future<serve::Response>> futs;
  while (svc.stats().shedOverload == 0 && futs.size() < kMaxJobs) {
    serve::Request req;
    req.program = "heavy";
    req.inputs = inputFor(static_cast<int>(futs.size()), kN);
    futs.push_back(svc.submit(std::move(req)));
  }
  const int jobs = static_cast<int>(futs.size());
  int ok = 0, shed = 0;
  for (auto& f : futs) {
    serve::Response r = f.get();
    if (r.ok) {
      ++ok;
      continue;
    }
    EXPECT_EQ(r.refusal, serve::Refusal::Overload) << r.error;
    EXPECT_EQ(r.failure, nullptr);
    EXPECT_EQ(r.error,
              "gradient service overload: request queue full (capacity 1), "
              "load shed\n  request " +
                  std::to_string(r.requestId) + ", tenant 'heavy'");
    EXPECT_NE(r.requestId, 0u);  // attribution survives the shed path
    ++shed;
  }
  EXPECT_EQ(ok + shed, jobs);
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.shedOverload, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(jobs));
  svc.drain();  // the shed accounting kept the drain invariant intact
}

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(ServeRobust, CircuitBreakerQuarantinesThenRecoversViaHalfOpenProbe) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.breakerThreshold = 2;
  cfg.breakerCooldownMs = 150;
  serve::GradientService svc(cfg);
  svc.registerProgram("indexed", buildIndexed, "f", kN);

  serve::Request poisoned;
  poisoned.program = "indexed";
  poisoned.inputs = {1e9, 0.5, 2.0, -1.5};  // x[0] indexes out of bounds
  serve::Request good;
  good.program = "indexed";
  good.inputs = {1.0, 0.5, 2.0, -1.5};

  // Two consecutive trap failures open the circuit.
  EXPECT_FALSE(svc.call(poisoned).ok);
  EXPECT_FALSE(svc.call(poisoned).ok);
  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.breakerOpens, 1u);
  const std::uint64_t isolatedBefore = st.isolatedRuns;
  const std::uint64_t batchesBefore = st.batches;

  // While open (cooldown not yet passed) even good jobs short-circuit at
  // admission — structurally, and without consuming a worker or a VM.
  serve::Response r = svc.call(good);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.refusal, serve::Refusal::CircuitOpen);
  EXPECT_EQ(r.failure, nullptr);
  EXPECT_EQ(r.error,
            "gradient service circuit open: program 'indexed' quarantined "
            "after 2 consecutive failures (cooldown 150.000000 ms)\n  "
            "request 3, tenant 'indexed'");
  st = svc.stats();
  EXPECT_GE(st.breakerShortCircuits, 1u);
  EXPECT_EQ(st.isolatedRuns, isolatedBefore);
  EXPECT_EQ(st.batches, batchesBefore);

  // After the cooldown one job is admitted as the half-open probe; its
  // success closes the circuit and normal traffic resumes.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  serve::Response probe = svc.call(good);
  ASSERT_TRUE(probe.ok) << probe.error;
  std::vector<double> want =
      oracleGrad([](ir::Module& m) { buildIndexed(m); }, good.inputs, 1.0);
  for (std::size_t k = 0; k < kN; ++k) EXPECT_EQ(probe.gradient[k], want[k]);
  st = svc.stats();
  EXPECT_EQ(st.breakerProbes, 1u);

  serve::Response after = svc.call(good);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(svc.stats().breakerShortCircuits, st.breakerShortCircuits);
}

TEST(ServeRobust, FailedHalfOpenProbeReopensTheCircuit) {
  constexpr std::size_t kN = 4;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.breakerThreshold = 1;  // a single failure opens the circuit
  cfg.breakerCooldownMs = 50;
  serve::GradientService svc(cfg);
  svc.registerProgram("indexed", buildIndexed, "f", kN);

  serve::Request poisoned;
  poisoned.program = "indexed";
  poisoned.inputs = {1e9, 0.5, 2.0, -1.5};
  serve::Request good;
  good.program = "indexed";
  good.inputs = {1.0, 0.5, 2.0, -1.5};

  EXPECT_FALSE(svc.call(poisoned).ok);
  EXPECT_EQ(svc.stats().breakerOpens, 1u);

  // The probe is itself poisoned: the circuit re-opens, and the next job
  // short-circuits again instead of reaching a worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(svc.call(poisoned).ok);
  EXPECT_EQ(svc.stats().breakerProbes, 1u);

  serve::Response r = svc.call(good);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.refusal, serve::Refusal::CircuitOpen);

  // A clean probe after another cooldown still heals the program.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  serve::Response healed = svc.call(good);
  ASSERT_TRUE(healed.ok) << healed.error;
}

// ---------------------------------------------------------------------------
// Bounded registries and caches.

TEST(ServeRobust, RegistryEvictionRecompilesBitExact) {
  constexpr std::size_t kN = 5;
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.registryCapacityBytes = 1;  // evict everything idle after each batch
  serve::GradientService svc(cfg);
  svc.registerProgram("a", servable(1.25), "f", kN);
  svc.registerProgram("b", servable(2.75), "f", kN);

  serve::Request ra;
  ra.program = "a";
  ra.inputs = inputFor(0, kN);
  serve::Request rb;
  rb.program = "b";
  rb.inputs = inputFor(1, kN);

  // callDirect() sweeps the registry before returning, so the evictions are
  // observable synchronously (the batched path sweeps on the worker thread
  // after the response is delivered).
  serve::Response a1 = svc.callDirect(ra);
  ASSERT_TRUE(a1.ok) << a1.error;
  EXPECT_TRUE(a1.coldCompile);
  serve::Response b1 = svc.callDirect(rb);
  ASSERT_TRUE(b1.ok) << b1.error;

  // Both programs were evicted once idle; the byte gauge is back under cap
  // and the next call transparently recompiles — bit-identically.
  serve::ServiceStats st = svc.stats();
  EXPECT_GE(st.programEvictions, 2u);
  EXPECT_EQ(st.registryBytes, 0u);

  serve::Response a2 = svc.call(ra);
  ASSERT_TRUE(a2.ok) << a2.error;
  EXPECT_TRUE(a2.coldCompile);  // re-prepared from the tenant's primal IR
  EXPECT_EQ(a2.primal, a1.primal);
  ASSERT_EQ(a2.gradient.size(), kN);
  for (std::size_t k = 0; k < kN; ++k)
    EXPECT_EQ(a2.gradient[k], a1.gradient[k]) << "k=" << k;
  EXPECT_GE(svc.stats().coldCompiles, 3u);

  // An unbounded service never evicts (control).
  serve::ServeConfig open;
  open.workers = 1;
  open.maxBatch = 1;
  serve::GradientService svc2(open);
  svc2.registerProgram("a", servable(1.25), "f", kN);
  serve::Response c1 = svc2.call(ra);
  ASSERT_TRUE(c1.ok) << c1.error;
  serve::Response c2 = svc2.call(ra);
  ASSERT_TRUE(c2.ok) << c2.error;
  EXPECT_FALSE(c2.coldCompile);
  EXPECT_EQ(svc2.stats().programEvictions, 0u);
  EXPECT_GT(svc2.stats().registryBytes, 0u);
}

TEST(CacheEviction, ProgramCacheByteCapEvictsLeastRecentlyUsed) {
  auto& cache = interp::ProgramCache::global();
  const std::size_t savedCap = cache.capacityBytes();
  const std::uint64_t e0 = cache.evictions();

  // Address-stable modules (the cache keys by &module).
  constexpr int kMods = 48;
  std::deque<ir::Module> mods;
  for (int k = 0; k < kMods; ++k) mods.push_back(hammerModule(500.0 + k));

  // A cap far below one closure: the cache keeps exactly its most recent
  // entry (eviction never drops the only closure, so a fresh insert always
  // survives its own admission).
  cache.setCapacityBytes(16);
  for (auto& mod : mods) {
    auto xm = cache.lookup(mod, mod.get("f"));
    ASSERT_NE(xm, nullptr);
    EXPECT_EQ(xm->programs[0].name, "f");
  }
  // The cap covers the whole cache: every insert after the first evicts.
  EXPECT_GE(cache.evictions() - e0, static_cast<std::uint64_t>(kMods - 1));

  // An evicted closure relowers on demand and still executes correctly.
  auto again = cache.lookup(mods[0], mods[0].get("f"));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(test::evalScalarFn(mods[0], "f", inputFor(0, 6)),
            test::evalScalarFn(mods[0], "f", inputFor(0, 6)));

  // Restore the process-wide cache before the modules go out of scope.
  for (auto& mod : mods) cache.invalidateModule(&mod);
  cache.setCapacityBytes(savedCap);
}

}  // namespace
}  // namespace parad
