// Serving-layer soak (DESIGN.md §15): many client threads firing mixed
// hot / cold / faulted / deadline-doomed / poisoned traffic at a small-queue
// service running several times past its capacity, with every robustness
// feature armed at once (deadlines, retries, rate limits, breaker, bounded
// registry). The suite asserts liveness and accounting, not latency: every
// future resolves, every failure is structured, submitted == completed after
// the storm, and a service destroyed mid-flight still answers everything.
//
// Default iteration counts keep the test in tier-1 time budgets; the
// SOAK=1 lane of scripts/check.sh sets PARAD_SOAK=1 to widen the storm and
// runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/serve/serve.h"
#include "tests/test_util.h"

namespace parad {
namespace {

using ir::Type;
using ir::Value;

std::function<void(ir::Module&)> soakServable(double c) {
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

/// x[ftoi(x[0])]: traps when x[0] is poisoned (breaker / isolation fodder).
void soakIndexed(ir::Module& mod) {
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

int soakIters(int dflt, int wide) {
  const char* s = std::getenv("PARAD_SOAK");
  return (s != nullptr && *s != '\0' && std::string(s) != "0") ? wide : dflt;
}

TEST(ServeSoak, MixedTrafficAtFourTimesCapacityStaysLiveAndAccounted) {
  constexpr std::size_t kN = 6;
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.maxBatch = 4;
  cfg.maxDelayUs = 100.0;
  cfg.queueCapacity = 8;       // tiny: the storm must shed, not block
  cfg.retryMax = 1;
  cfg.retryBackoffUs = 1.0;
  cfg.breakerThreshold = 3;
  cfg.breakerCooldownMs = 2.0;
  cfg.registryCapacityBytes = 4096;  // forces periodic tenant eviction
  serve::GradientService svc(cfg);
  svc.registerProgram("hot", soakServable(1.0), "f", kN);
  for (int k = 0; k < 6; ++k)
    svc.registerProgram("cold" + std::to_string(k),
                        soakServable(2.0 + 0.5 * k), "f", kN);
  svc.registerProgram("indexed", soakIndexed, "f", kN);

  // 4 producer threads each bursting (clients >> workers, queue of 8): the
  // aggregate offered load is several times what the two workers drain.
  const int kClients = 4;
  const int kPerClient = soakIters(48, 480);
  std::atomic<int> okCount{0};
  std::atomic<int> structuredFailures{0};
  std::atomic<int> malformedFailures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<serve::Response>> futs;
      futs.reserve(static_cast<std::size_t>(kPerClient));
      for (int i = 0; i < kPerClient; ++i) {
        serve::Request req;
        req.inputs = std::vector<double>(kN, 0.25 + 0.125 * ((t + i) % 7));
        switch ((t * 131 + i) % 8) {
          case 0:  // cold tenant: churns the bounded registry
            req.program = "cold" + std::to_string(i % 6);
            break;
          case 1:  // fault-injected: exercises isolation + retry
            req.program = "hot";
            req.faultSpec = "seed=" + std::to_string(t * 1000 + i) +
                            ",kill=0.3,killns=5,retry=0";
            break;
          case 2:  // deadline-doomed: expires in queue under this load
            req.program = "hot";
            req.deadlineMs = 1e-6;
            break;
          case 3:  // poisoned input: traps, feeds the circuit breaker
            req.program = "indexed";
            req.inputs[0] = 1e9;
            break;
          default:  // hot clean traffic
            req.program = "hot";
            break;
        }
        futs.push_back(svc.submit(std::move(req)));
        // Burst shape: tight loop, occasional harvest to bound our own
        // memory; the queue, not the client, is the throttle.
        if (futs.size() >= 32) {
          for (auto& f : futs) {
            serve::Response r = f.get();
            if (r.ok)
              okCount++;
            else if (!r.error.empty())
              structuredFailures++;
            else
              malformedFailures++;
          }
          futs.clear();
        }
      }
      for (auto& f : futs) {
        serve::Response r = f.get();
        if (r.ok)
          okCount++;
        else if (!r.error.empty())
          structuredFailures++;
        else
          malformedFailures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  svc.drain();

  const int total = kClients * kPerClient;
  // Liveness: every request was answered, exactly once, with either a result
  // or a structured error — never an empty-handed future.
  EXPECT_EQ(okCount.load() + structuredFailures.load(), total);
  EXPECT_EQ(malformedFailures.load(), 0);
  EXPECT_GT(okCount.load(), 0);

  serve::ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(total));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(total));
  EXPECT_EQ(st.failed, static_cast<std::uint64_t>(structuredFailures.load()));
  // The storm genuinely exercised the machinery it is soaking.
  EXPECT_GT(st.deadlineExpired, 0u);
  EXPECT_GT(st.isolatedRuns, 0u);
  EXPECT_GT(st.programEvictions, 0u);

  // The service is still healthy after the storm.
  serve::Request probe;
  probe.program = "hot";
  probe.inputs = std::vector<double>(kN, 0.5);
  serve::Response r = svc.call(probe);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(ServeSoak, DestructionMidFlightAnswersEveryFuture) {
  constexpr std::size_t kN = 6;
  const int kJobs = soakIters(64, 512);
  std::vector<std::future<serve::Response>> futs;
  {
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.maxBatch = 4;
    cfg.queueCapacity = 4;
    serve::GradientService svc(cfg);
    svc.registerProgram("hot", soakServable(1.0), "f", kN);
    for (int j = 0; j < kJobs; ++j) {
      serve::Request req;
      req.program = "hot";
      req.inputs = std::vector<double>(kN, 0.25 + 0.125 * (j % 5));
      futs.push_back(svc.submit(std::move(req)));
    }
    // ~svc runs here with most of the work still queued.
  }
  for (auto& f : futs) {
    serve::Response r = f.get();  // must not hang or throw broken_promise
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

}  // namespace
}  // namespace parad
