// serve_open: the gradient service driven as an open loop. One generator
// thread sends clean requests on a fixed, seeded schedule; the main thread
// collects the answers and checks each against the tenant's closed-form
// derivative. Latency runs from when a request was due, not when it was
// sent, so a stalled generator shows up as latency.
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "perfbench/programs.h"
#include "perfbench/trace.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/ir/builder.h"
#include "src/psim/sim.h"
#include "src/serve/serve.h"
#include "src/support/rng.h"

namespace perfbench {

namespace {

using namespace parad;

/// Offered load of small and medium requests, per second. A constant of the
/// benchmark, the same on every run and every commit: 20 % of the capacity
/// that --workload serve_capacity measured for this service configuration
/// (see perfbench/README.md), a load at which batches form.
constexpr double kOfferedRps = 5000.0;
/// One large request every kLargePeriodNs of the schedule.
constexpr double kLargePeriodNs = 250e6;
/// Requests answered by callDirect after the traced window (off the clock).
constexpr int kDirectSamples = 48;
/// Requests the capacity probe keeps outstanding: enough to fill every
/// worker with full batches while the next ones queue.
constexpr std::size_t kProbeOutstanding = 64;

struct Tenant {
  const char* name;
  double c;
  i64 n;
  double weight;  // share of the requests that are not large
};
// Spread input lengths: per-run fixed cost dominates the small tenant,
// dispatch dominates the large one, whose requests (one every
// kLargePeriodNs) make up the latency tail.
constexpr Tenant kTenants[] = {
    {"small", 1.25, 16, 0.63},
    {"medium", 2.5, 512, 0.37},
    {"large", 4.75, 131072, 0},
};
constexpr int kNumTenants = 3;

/// Servable tenant f(x, n) = sum_i c sin(x_i) + cos(x_i) + x_i^2 / 2.
std::function<void(ir::Module&)> tenantIR(double c) {
  return [c](ir::Module& mod) {
    using ir::Type;
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](ir::Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fadd(b.fmul(b.sin_(v), b.constF(c)), b.cos_(v)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

/// One request of the seeded schedule.
struct Planned {
  std::uint64_t offsetNs = 0;  // due time relative to the window start
  int tenant = 0;
  std::uint64_t inputSeed = 0;
  double seed = 1;  // reverse-mode seed
};

/// A request of `tenant` due at `offsetNs`, or of small or medium drawn by
/// their weights when `tenant` is -1.
Planned draw(Rng& rng, double offsetNs, int tenant = -1) {
  Planned p;
  p.offsetNs = std::uint64_t(offsetNs);
  p.tenant = tenant >= 0 ? tenant : rng.nextDouble() < kTenants[0].weight ? 0 : 1;
  p.inputSeed = rng.nextU64();
  p.seed = 0.5 + rng.nextDouble();
  return p;
}

/// Small and medium requests arrive as a Poisson process at kOfferedRps; a
/// large one is due every kLargePeriodNs, so large requests never overlap.
std::vector<Planned> schedule(Rng& rng, double seconds) {
  std::vector<Planned> plan;
  const double meanGapNs = 1e9 / kOfferedRps;
  double t = 0, nextLarge = kLargePeriodNs / 2;
  for (;;) {
    t -= meanGapNs * std::log(1 - rng.nextDouble());
    if (t >= seconds * 1e9) break;
    for (; nextLarge <= t; nextLarge += kLargePeriodNs)
      plan.push_back(draw(rng, nextLarge, kNumTenants - 1));
    plan.push_back(draw(rng, t));
  }
  return plan;
}

serve::Request requestFor(const Planned& p, long op) {
  serve::Request req;
  const Tenant& t = kTenants[p.tenant];
  req.program = t.name;
  req.seed = p.seed;
  req.id = std::uint64_t(op) + 1;
  Rng rng(p.inputSeed);
  req.inputs.resize(std::size_t(t.n));
  for (double& x : req.inputs) x = rng.uniform(-2.0, 2.0);
  return req;
}

/// Checks a response against the tenant's closed form. Empty: correct.
std::string checkResponse(const serve::Request& req, int tenant,
                          const serve::Response& r) {
  if (!r.ok) return "request failed: " + r.error;
  const double c = kTenants[tenant].c;
  if (r.gradient.size() != req.inputs.size()) return "gradient length";
  double f = 0;
  for (std::size_t k = 0; k < req.inputs.size(); ++k) {
    double x = req.inputs[k];
    double want = req.seed * (c * std::cos(x) - std::sin(x) + x);
    if (!(std::abs(r.gradient[k] - want) <= 1e-12 * (1 + std::abs(want))))
      return "gradient[" + std::to_string(k) + "] off the closed form";
    f += (std::sin(x) * c + std::cos(x)) + (x * x) * 0.5;
  }
  if (!(std::abs(r.primal - f) <= 1e-12 * (double(req.inputs.size()) + std::abs(f))))
    return "primal off the closed form";
  return "";
}

struct OpenWindow {
  std::vector<double> latMs;     // answered-and-correct requests, due -> done
  std::vector<double> lateMs;    // how late the generator sent each request
  std::vector<double> submitUs;  // wall time of each submit() call
  std::uint64_t startNs = 0, lastDoneNs = 0;
  serve::ServiceStats before, after;
  std::uint64_t cacheHits = 0, cacheMisses = 0;
  double seconds() const { return double(lastDoneNs - startNs) * 1e-9; }
};

OpenWindow openLoop(Result& res, const Options& o, serve::GradientService& svc,
                    const std::vector<Planned>& plan, long opBase) {
  struct Inflight {
    long op;
    std::size_t idx;
    std::uint64_t dueNs;
    int submitSpan;
    std::future<serve::Response> fut;
  };
  OpenWindow w;
  // Sized up front, so that growing them does not show in peak RSS.
  w.latMs.reserve(plan.size());
  w.lateMs.reserve(plan.size());
  w.submitUs.reserve(plan.size());
  const interp::ProgramCache& pc = interp::ProgramCache::global();
  std::uint64_t hits0 = pc.hits(), misses0 = pc.misses();
  w.before = svc.stats();
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Inflight> queue;  // guarded by mu
  bool sent = false;           // guarded by mu: the generator is done
  w.startNs = nowNs() + 20000000;  // 20 ms for the generator to start
  w.lastDoneNs = w.startNs;

  std::thread gen([&] {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      long op = opBase + long(i);
      serve::Request req = requestFor(plan[i], op);
      std::uint64_t due = w.startNs + plan[i].offsetNs;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      std::uint64_t t0 = nowNs();
      w.lateMs.push_back(double(t0 - due) * 1e-6);
      int span;
      std::future<serve::Response> fut;
      {
        trace::Span s("serve.submit", op);
        span = s.id();
        fut = svc.submit(std::move(req));
      }
      w.submitUs.push_back(double(nowNs() - t0) * 1e-3);
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({op, i, due, span, std::move(fut)});
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    sent = true;
    cv.notify_one();
  });

  for (;;) {
    Inflight in;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sent || !queue.empty(); });
      if (queue.empty()) break;
      in = std::move(queue.front());
      queue.pop_front();
    }
    serve::Response r = in.fut.get();
    w.lastDoneNs = std::max(w.lastDoneNs, r.doneAtNs);
    int reqSpan = trace::recordExternal("serve.request", in.dueNs, r.doneAtNs,
                                        in.op);
    trace::setParent(in.submitSpan, reqSpan);
    res.attempted++;
    if (in.op == o.perturbOp && !r.gradient.empty())
      r.gradient[0] += 1e-6 * std::max(1.0, std::abs(r.gradient[0]));
    const Planned& p = plan[in.idx];
    std::string err = checkResponse(requestFor(p, in.op), p.tenant, r);
    if (!err.empty()) {
      res.failed++;
      if (res.notes.size() < 20)
        res.notes.push_back("request " + std::to_string(in.op) + " (" +
                            kTenants[p.tenant].name + "): " + err);
      continue;
    }
    w.latMs.push_back(double(r.doneAtNs - in.dueNs) * 1e-6);
  }
  gen.join();
  w.after = svc.stats();
  w.cacheHits = pc.hits() - hits0;
  w.cacheMisses = pc.misses() - misses0;
  return w;
}

serve::ServeConfig serveConfig() {
  serve::ServeConfig cfg;  // built-in defaults; the environment is not read
  cfg.workers = 2;         // + the generator thread: within a 4-core host
  cfg.maxBatch = 16;
  cfg.maxDelayUs = 200.0;
  cfg.queueCapacity = 4096;
  cfg.engine = "exec";
  cfg.threadsPerRank = 1;
  return cfg;
}

/// The tenant compiled the way the apps are, for the IR and plan columns.
struct TenantRef {
  Compiled c;
  double primalNs = 0, gradNs = 0;
  std::uint64_t gradInsts = 0;
};

std::vector<double> probeInputs(i64 n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k) x[std::size_t(k)] = -1.5 + 3.0 * double(k) / double(n);
  return x;
}

TenantRef tenantReference(serve::GradientService& svc, int t, Result& res) {
  const Tenant& ten = kTenants[t];
  TenantRef ref{compileModule(tenantIR(ten.c), "f", {true, false}, -1)};
  std::vector<double> x = probeInputs(ten.n);
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(ir::Type::F64, ten.n, 0);
  for (i64 k = 0; k < ten.n; ++k) m.mem().atF(p, k) = x[std::size_t(k)];
  const ir::Module& mod = *ref.c.mod;
  ref.primalNs = m.run({1, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m, "exec");
    it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(ten.n)}, env);
  });

  serve::Request req;
  req.program = ten.name;
  req.inputs = x;
  serve::Response r = svc.callDirect(req);
  std::string err = checkResponse(req, t, r);
  if (!err.empty()) {
    res.referenceOk = false;
    res.notes.push_back(std::string(ten.name) + " reference: " + err);
  }
  ref.gradNs = r.virtualNs;
  ref.gradInsts = r.stats.instsExecuted;
  return ref;
}

}  // namespace

Result runServeOpen(const Options& o, std::uint64_t processStartNs) {
  Result res;
  trace::enable(o.trace);
  SetupClock clock;
  std::unique_ptr<serve::GradientService> svc;
  auto setUp = [&] {
    svc.reset();
    clock.begin();
    svc = std::make_unique<serve::GradientService>(serveConfig());
    for (const Tenant& t : kTenants)
      svc->registerProgram(t.name, tenantIR(t.c), "f", t.n);
    // Warm every tenant: the cold compile happens here. (The direct path
    // that tenantReference uses shares the prepared program.) The large
    // tenant is warmed on both workers: the second request is sent once the
    // first one's batch has left the batcher, so another worker takes it.
    // A worker's first large run is several times slower than later ones.
    std::uint64_t checkNs = 0;
    for (int t = 0; t < kNumTenants; ++t) {
      serve::Request req;
      req.program = kTenants[t].name;
      req.inputs = probeInputs(kTenants[t].n);
      std::vector<std::future<serve::Response>> futs;
      futs.push_back(svc->submit(req));
      if (t == kNumTenants - 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::int64_t(4 * serveConfig().maxDelayUs)));
        futs.push_back(svc->submit(req));
      }
      for (auto& f : futs) {
        serve::Response r = f.get();
        std::uint64_t c0 = nowNs();
        std::string err = checkResponse(req, t, r);
        if (!err.empty()) {
          res.referenceOk = false;
          res.notes.push_back(std::string("warm-up ") + kTenants[t].name +
                              ": " + err);
        }
        checkNs += nowNs() - c0;
      }
    }
    clock.exclude(checkNs);
    clock.end(processStartNs);
  };
  while (moreSetupBefore(clock)) setUp();

  std::vector<TenantRef> refs;
  double logOverhead = 0;
  for (int t = 0; t < kNumTenants; ++t) {
    refs.push_back(tenantReference(*svc, t, res));
    const TenantRef& r = refs.back();
    std::string pre = std::string(kTenants[t].name) + ".";
    fingerprintCompile(res, pre, r.c);
    auto& f = res.fingerprint;
    f[pre + "primal_virtual_ns"] = r.primalNs;
    f[pre + "grad_virtual_ns"] = r.gradNs;
    f[pre + "grad_insts"] = double(r.gradInsts);
    logOverhead += std::log(r.gradNs / r.primalNs);
  }
  trace::enable(false);
  const double gradOverhead = std::exp(logOverhead / kNumTenants);

  Rng rng(o.seed * 0x2545f4914f6cdd1dull + 7);
  if (!o.trace) {
    OpenWindow w = openLoop(res, o, *svc, schedule(rng, o.seconds), 0);
    while (moreSetupAfter(clock)) setUp();
    endToEnd(res, clock, w.latMs, w.seconds(), gradOverhead);
    return res;
  }

  std::vector<Planned> first = schedule(rng, o.seconds / 2);
  std::vector<Planned> second = schedule(rng, o.seconds / 2);
  OpenWindow plain = openLoop(res, o, *svc, first, 0);
  trace::enable(true);
  const long base = long(first.size());
  OpenWindow traced = openLoop(res, o, *svc, second, base);

  // Off the clock: the naive path on a sample of the traced requests.
  std::vector<double> directMs;
  double insts = 0, vns = 0, atomics = 0, peakLive = 0;
  for (int i = 0; i < kDirectSamples && i < int(second.size()); ++i) {
    serve::Request req = requestFor(second[std::size_t(i)], base + i);
    std::uint64_t t0 = nowNs();
    serve::Response r;
    {
      trace::Span s("serve.direct", base + i);
      r = svc->callDirect(req);
    }
    directMs.push_back(double(nowNs() - t0) * 1e-6);
    std::string err = checkResponse(req, second[std::size_t(i)].tenant, r);
    if (!err.empty()) {
      res.referenceOk = false;
      res.notes.push_back("callDirect sample: " + err);
    }
    insts += double(r.stats.instsExecuted);
    vns += r.virtualNs;
    atomics += double(r.stats.atomicOps);
    peakLive += double(r.stats.peakLiveBytes);
  }
  trace::enable(false);
  const double n = double(std::max<std::size_t>(directMs.size(), 1));
  double directTotalMs = 0;
  for (double d : directMs) directTotalMs += d;

  initLayerMetrics(res);
  res.set("ir.build_ms", meanSpanMs("ir.build"), "ms");
  double instsPrimal = 0, instsGrad = 0, lowerBytes = 0, plan = 0;
  for (const TenantRef& r : refs) {
    instsPrimal += double(r.c.instsPrimal);
    instsGrad += double(r.c.instsGrad);
    lowerBytes += double(r.c.lowerBytes);
    plan += planMs(r.c);
    addPlanMetrics(res, r.c, RunOut{});
  }
  res.set("ir.insts_primal", instsPrimal, "count");
  res.set("ir.insts_grad", instsGrad, "count");
  res.set("passes.prepare_ms", meanSpanMs("passes.prepare"), "ms");
  res.set("passes.optimize_ms", meanSpanMs("passes.optimize"), "ms");
  res.set("core.plan_ms", plan / kNumTenants, "ms");
  res.set("core.generate_ms", meanSpanMs("core.generate"), "ms");
  res.set("interp.lower_ms", meanSpanMs("interp.lower"), "ms");
  res.set("interp.lower_bytes", lowerBytes, "bytes");
  res.set("interp.insts_per_op", insts / n, "count");
  res.set("interp.minst_per_s",
          directTotalMs > 0 ? insts / (directTotalMs * 1e-3) / 1e6 : 0,
          "Minst/s");
  res.set("interp.program_cache_hits", double(traced.cacheHits), "count");
  res.set("interp.program_cache_misses", double(traced.cacheMisses), "count");
  res.set("psim.empty_run_us", emptyRunUs(1, 1), "us");
  res.set("psim.atomic_ops", atomics / n, "count");
  res.set("psim.virtual_ns", vns / n, "ns");
  res.set("psim.peak_live_bytes", peakLive / n, "bytes");
  const serve::ServiceStats& a = traced.before;
  const serve::ServiceStats& b = traced.after;
  double batches = double(b.batches - a.batches);
  res.set("serve.submit_us", median(traced.submitUs), "us");
  res.set("serve.batches", batches, "count");
  res.set("serve.batch_size_mean",
          batches > 0 ? double(b.batchedRequests - a.batchedRequests) / batches
                      : 0,
          "count");
  res.set("serve.isolated_runs", double(b.isolatedRuns - a.isolatedRuns),
          "count");
  res.set("serve.shed",
          double((b.shedOverload - a.shedOverload) + (b.shedRate - a.shedRate) +
                 (b.shedInflight - a.shedInflight)),
          "count");
  res.set("serve.direct_ms", median(directMs), "ms");
  double lateSum = 0;
  for (double l : traced.lateMs) lateSum += l;
  res.set("serve.gen_late_ms",
          traced.lateMs.empty() ? 0 : lateSum / double(traced.lateMs.size()),
          "ms");
  selfTimeMetrics(res, o.workload);
  double p0 = median(plain.latMs), p1 = median(traced.latMs);
  res.set("bench.trace_overhead_frac", p0 > 0 ? p1 / p0 - 1 : 0, "frac");
  writeTrace(res, o);
  return res;
}

Result runServeCapacity(const Options& o) {
  Result res;
  serve::GradientService svc(serveConfig());
  for (int t = 0; t < kNumTenants - 1; ++t) {
    svc.registerProgram(kTenants[t].name, tenantIR(kTenants[t].c), "f",
                        kTenants[t].n);
    serve::Request req;
    req.program = kTenants[t].name;
    req.inputs = probeInputs(kTenants[t].n);
    (void)svc.call(req);
  }
  // Closed loop over a pool of small/medium requests: a new request goes out
  // as soon as the oldest outstanding one is answered. Each pool entry's
  // first answer is checked against the closed form, later ones against that
  // answer bit for bit, so the client stays cheaper than the service.
  struct Entry {
    Planned p;
    serve::Request req;
    std::vector<double> grad;  // verified gradient (empty: none yet)
  };
  Rng rng(o.seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<Entry> pool(4 * kProbeOutstanding);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].p = draw(rng, 0);
    pool[i].req = requestFor(pool[i].p, long(i));
  }
  std::deque<std::pair<std::size_t, std::future<serve::Response>>> inflight;
  std::size_t next = 0;
  auto send = [&] {
    std::size_t i = next++ % pool.size();
    inflight.emplace_back(i, svc.submit(pool[i].req));
  };
  const serve::ServiceStats before = svc.stats();
  const std::uint64_t t0 = nowNs(), end = t0 + std::uint64_t(o.seconds * 1e9);
  std::uint64_t last = t0;
  while (inflight.size() < kProbeOutstanding) send();
  while (!inflight.empty()) {
    Entry& e = pool[inflight.front().first];
    serve::Response r = inflight.front().second.get();
    inflight.pop_front();
    res.attempted++;
    std::string err;
    if (e.grad.empty()) {
      err = checkResponse(e.req, e.p.tenant, r);
      if (err.empty()) e.grad = r.gradient;
    } else if (r.gradient != e.grad) {
      err = "gradient differs from its earlier verified answer";
    }
    if (!err.empty()) {
      res.failed++;
      if (res.notes.size() < 20) res.notes.push_back("probe request: " + err);
    }
    last = std::max(last, r.doneAtNs);
    if (nowNs() < end) send();
  }
  const serve::ServiceStats after = svc.stats();
  const double batches = double(after.batches - before.batches);
  res.set("capacity_rps", double(res.attempted) / (double(last - t0) * 1e-9),
          "1/s");
  res.set("batch_size_mean",
          batches > 0
              ? double(after.batchedRequests - before.batchedRequests) / batches
              : 0,
          "count");
  return res;
}

}  // namespace perfbench
