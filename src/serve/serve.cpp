#include "src/serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/core/batch.h"
#include "src/core/gradient.h"
#include "src/interp/backend.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/psim/faults.h"
#include "src/psim/sim.h"
#include "src/serve/queue.h"
#include "src/support/knobs.h"

namespace parad::serve {

namespace {

/// The absolute host deadline of a job started at `now` that may take `ms`
/// milliseconds; 0 (no deadline) when `ms` <= 0.
std::uint64_t deadlineAt(std::uint64_t now, double ms) {
  if (!std::isfinite(ms) || ms * 1e6 > kMaxTimeNs)
    fail("serve: deadline of ", ms, " ms is out of range (at most ",
         static_cast<long long>(kMaxTimeNs / 1e6), " ms)");
  return ms > 0 ? now + static_cast<std::uint64_t>(ms * 1e6) : 0;
}

}  // namespace

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ServeConfig ServeConfig::fromEnv() {
  // A typo (PARAD_SERVE_DEDLINE_MS) fails loudly instead of silently running
  // with defaults.
  rejectUnknownEnv("PARAD_SERVE_", "serve");
  ServeConfig cfg;
  auto num = [](std::string_view name, double dflt) {
    return envNumber(name, dflt, "serve");
  };
  // Integer knobs are at most 2^31-1, so these casts are in range.
  auto integer = [&](std::string_view name, int dflt) {
    return static_cast<int>(num(name, dflt));
  };
  cfg.workers = std::max(1, integer("PARAD_SERVE_THREADS", cfg.workers));
  cfg.maxBatch = std::max(1, integer("PARAD_SERVE_BATCH", cfg.maxBatch));
  cfg.maxDelayUs = num("PARAD_SERVE_MAX_DELAY_US", cfg.maxDelayUs);
  cfg.queueCapacity = static_cast<std::size_t>(std::max(
      1, integer("PARAD_SERVE_QUEUE", static_cast<int>(cfg.queueCapacity))));
  if (std::string e = envText("PARAD_SERVE_ENGINE"); !e.empty())
    cfg.engine = e;
  cfg.deadlineMs = num("PARAD_SERVE_DEADLINE_MS", cfg.deadlineMs);
  cfg.retryMax = integer("PARAD_SERVE_RETRY", cfg.retryMax);
  cfg.retryBackoffUs = num("PARAD_SERVE_RETRY_BACKOFF_US", cfg.retryBackoffUs);
  cfg.ratePerSec = num("PARAD_SERVE_RATE", cfg.ratePerSec);
  cfg.rateBurst = num("PARAD_SERVE_BURST", cfg.rateBurst);
  cfg.maxInflight = integer("PARAD_SERVE_INFLIGHT", cfg.maxInflight);
  cfg.breakerThreshold = integer("PARAD_SERVE_BREAKER", cfg.breakerThreshold);
  cfg.breakerCooldownMs =
      num("PARAD_SERVE_BREAKER_COOLDOWN_MS", cfg.breakerCooldownMs);
  cfg.registryCapacityBytes = envByteSize("PARAD_SERVE_CACHE_BYTES");
  if (std::string e = envText("PARAD_SERVE_CKPT_DIR"); !e.empty())
    cfg.ckptDir = e;
  return cfg;
}

// ---------------------------------------------------------------------------
// Implementation.

struct GradientService::Impl {
  /// One tenant program (possibly shared by several registered names when
  /// their primal IR fingerprints coincide). The module's heap address is
  /// stable for the service's lifetime — the sharded ProgramCache keys
  /// lowered closures by it.
  struct Program {
    std::string primal;
    i64 n = 0;
    int threads = 1;
    std::uint64_t primalFp = 0;
    ir::Module mod;
    std::mutex prepMu;           // serializes cold compile AND eviction
    std::atomic<bool> prepared{false};
    core::GradInfo gi;
    core::BatchInfo bi;
    // Functions generateGradient/generateBatchedGradient added to `mod`
    // beyond the tenant's own (written under prepMu); eviction erases
    // exactly these so the tenant's primal IR survives to recompile against.
    std::vector<std::string> generated;
    std::size_t preparedBytes = 0;  // IR bytes accounted while prepared
    // Registry-LRU state: jobs referencing this program right now (never
    // evict a live program) and the last admission stamp (evict oldest).
    std::atomic<int> inflight{0};
    std::atomic<std::uint64_t> lastUsedNs{0};
    // Circuit breaker (DESIGN.md §15): consecutive execution failures;
    // openedAtNs != 0 means open since that stamp; probeInflight gates the
    // single half-open probe job.
    std::atomic<int> consecFailures{0};
    std::atomic<std::uint64_t> openedAtNs{0};
    std::atomic<bool> probeInflight{false};
  };

  struct Job {
    Request req;
    std::promise<Response> promise;
    std::uint64_t deadlineNs = 0;  // absolute host deadline; 0 = none
    bool probe = false;            // a half-open circuit-breaker probe
  };

  /// A flushed batch: same program, same engine — one VM run for the clean
  /// subset, per-job VMs for fault-carrying members.
  struct BatchWork {
    Program* prog = nullptr;
    std::string engine;  // canonical backend name
    std::vector<Job> jobs;
  };

  explicit Impl(GradientService& svc)
      : svc_(svc),
        requests_(svc.cfg_.queueCapacity),
        batches_(std::max<std::size_t>(svc.cfg_.queueCapacity, 16)) {}

  GradientService& svc_;
  BoundedQueue<Job> requests_;
  BoundedQueue<BatchWork> batches_;
  std::thread batcher_;
  std::vector<std::thread> workers_;

  std::mutex progMu_;
  std::vector<std::unique_ptr<Program>> programs_;
  std::unordered_map<std::string, Program*> byName_;
  std::map<std::tuple<std::uint64_t, i64, int>, Program*> byFp_;

  // Aggregate counters (ServiceStats).
  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, failed_{0};
  std::atomic<std::uint64_t> nBatches_{0}, batchedRequests_{0},
      maxBatchObserved_{0}, isolatedRuns_{0}, batchFallbacks_{0},
      coldCompiles_{0};
  std::atomic<std::uint64_t> shedOverload_{0}, shedRate_{0}, shedInflight_{0},
      deadlineExpired_{0}, retries_{0}, warmResumes_{0}, breakerOpens_{0},
      breakerShortCircuits_{0}, breakerProbes_{0}, programEvictions_{0};
  std::atomic<std::size_t> registryBytes_{0};
  std::atomic<std::uint64_t> nextId_{0};
  std::mutex drainMu_;
  std::condition_variable drainCv_;

  // ---- per-tenant admission state ----

  struct Bucket {
    double tokens = 0;
    std::uint64_t lastNs = 0;
  };
  std::mutex tenantMu_;
  std::unordered_map<std::string, Bucket> buckets_;
  std::unordered_map<std::string, std::int64_t> inflightByTenant_;

  /// Token-bucket admission: one token per request, refilled at ratePerSec
  /// up to the burst. Returns false when the tenant's bucket is dry.
  bool admitRate(const std::string& tenant, std::uint64_t now) {
    double rate = svc_.cfg_.ratePerSec;
    if (rate <= 0) return true;
    double burst =
        svc_.cfg_.rateBurst > 0 ? svc_.cfg_.rateBurst : std::max(1.0, rate);
    std::lock_guard<std::mutex> lock(tenantMu_);
    auto [it, fresh] = buckets_.try_emplace(tenant, Bucket{burst, now});
    Bucket& b = it->second;
    if (!fresh) {
      b.tokens = std::min(
          burst, b.tokens + rate * static_cast<double>(now - b.lastNs) * 1e-9);
      b.lastNs = now;
    }
    if (b.tokens < 1.0) return false;
    b.tokens -= 1.0;
    return true;
  }

  // ---- deadline monitor ----
  //
  // One thread owning a multimap of (absolute deadline -> weak cancel flag).
  // Workers arm a flag per deadline-carrying run; when the host clock passes
  // a deadline the monitor sets the flag and the VM's cancel probe aborts
  // the run with a structured Deadline report. Weak pointers keep a run that
  // finished early from pinning its flag here.
  std::mutex dlMu_;
  std::condition_variable dlCv_;
  std::multimap<std::uint64_t, std::weak_ptr<std::atomic<bool>>> dlArmed_;
  bool dlStop_ = false;
  std::thread dlThread_;

  std::shared_ptr<std::atomic<bool>> armDeadline(std::uint64_t deadlineNs) {
    auto flag = std::make_shared<std::atomic<bool>>(false);
    {
      std::lock_guard<std::mutex> lock(dlMu_);
      dlArmed_.emplace(deadlineNs, flag);
    }
    dlCv_.notify_one();
    return flag;
  }

  void deadlineLoop() {
    std::unique_lock<std::mutex> lock(dlMu_);
    while (!dlStop_) {
      if (dlArmed_.empty()) {
        dlCv_.wait(lock);
        continue;
      }
      std::uint64_t now = nowNs();
      std::uint64_t next = dlArmed_.begin()->first;
      if (next > now) {
        dlCv_.wait_for(lock, std::chrono::nanoseconds(next - now));
        now = nowNs();
      }
      while (!dlArmed_.empty() && dlArmed_.begin()->first <= now) {
        if (auto flag = dlArmed_.begin()->second.lock())
          flag->store(true, std::memory_order_release);
        dlArmed_.erase(dlArmed_.begin());
      }
    }
  }

  // ---- admission helpers ----

  Program* findProgram(const std::string& name) {
    std::lock_guard<std::mutex> lock(progMu_);
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
  }

  std::string resolveEngine(const std::string& spec) const {
    std::string s = spec.empty() ? svc_.cfg_.engine : spec;
    if (s.empty()) s = interp::defaultEngine();
    // Throws the engine table's unknown-backend error (sorted backend list +
    // did-you-mean) for bad specs; the admission stage turns it into
    // the request's failure message.
    return std::string(interp::BackendRegistry::global().resolve(s).name());
  }

  /// Deterministic footprint estimate of one IR function (instructions,
  /// regions, operand lists): the unit of account for the registry byte cap.
  static std::size_t regionBytes(const ir::Region& rg) {
    std::size_t total = sizeof(ir::Region) + rg.args.size() * sizeof(int);
    for (const ir::Inst& in : rg.insts) {
      total += sizeof(ir::Inst) + in.operands.size() * sizeof(int) +
               in.sym.size();
      for (const ir::Region& sub : in.regions) total += regionBytes(sub);
    }
    return total;
  }
  static std::size_t irFunctionBytes(const ir::Function& fn) {
    return sizeof(ir::Function) + fn.name.size() +
           fn.paramTypes.size() * sizeof(ir::Type) +
           fn.valueTypes.size() * sizeof(ir::Type) + regionBytes(fn.body);
  }

  /// One-time gradient generation + batch-wrapper emission for a tenant
  /// program (the cold path, re-entered transparently after an eviction).
  /// Returns true when this call did the work.
  bool ensurePrepared(Program& p) {
    if (p.prepared.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(p.prepMu);
    if (p.prepared.load(std::memory_order_relaxed)) return false;
    std::vector<std::string> before;
    for (const auto& kv : p.mod.functions) before.push_back(kv.first);
    core::GradConfig gc;
    gc.activeArg = {true, false};
    p.gi = core::generateGradient(p.mod, p.primal, gc);
    p.bi = core::generateBatchedGradient(p.mod, p.gi);
    p.generated.clear();
    std::size_t bytes = 0;
    for (const auto& kv : p.mod.functions) {
      if (std::find(before.begin(), before.end(), kv.first) != before.end())
        continue;
      p.generated.push_back(kv.first);
      bytes += irFunctionBytes(kv.second);
    }
    p.preparedBytes = bytes;
    registryBytes_.fetch_add(bytes, std::memory_order_relaxed);
    p.prepared.store(true, std::memory_order_release);
    coldCompiles_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Registry LRU eviction: while the prepared-program bytes exceed the cap,
  /// unprepare the least-recently-used idle program — erase its generated
  /// gradient/batch functions (the tenant's own IR survives), drop its
  /// lowered closures from the process-wide ProgramCache, and let the next
  /// job recompile it transparently. Lock order: progMu_ alone to pick a
  /// victim, then the victim's prepMu alone to evict (inflight jobs are
  /// re-checked under prepMu, so a program is never mutated while a VM run
  /// references its IR — a worker bumps inflight before ensurePrepared).
  void sweepRegistry() {
    std::size_t cap = svc_.cfg_.registryCapacityBytes;
    if (cap == 0) return;
    while (registryBytes_.load(std::memory_order_relaxed) > cap) {
      Program* victim = nullptr;
      std::uint64_t oldest = 0;
      {
        std::lock_guard<std::mutex> lock(progMu_);
        for (const auto& up : programs_) {
          Program& p = *up;
          if (!p.prepared.load(std::memory_order_acquire)) continue;
          if (p.inflight.load(std::memory_order_acquire) > 0) continue;
          std::uint64_t used = p.lastUsedNs.load(std::memory_order_relaxed);
          if (victim == nullptr || used < oldest) {
            victim = &p;
            oldest = used;
          }
        }
      }
      if (victim == nullptr) return;  // everything left is live; back off
      std::lock_guard<std::mutex> lock(victim->prepMu);
      if (!victim->prepared.load(std::memory_order_relaxed)) continue;
      if (victim->inflight.load(std::memory_order_acquire) > 0) continue;
      victim->prepared.store(false, std::memory_order_release);
      for (const std::string& fn : victim->generated)
        victim->mod.functions.erase(fn);
      victim->generated.clear();
      interp::ProgramCache::global().invalidateModule(&victim->mod);
      registryBytes_.fetch_sub(victim->preparedBytes,
                               std::memory_order_relaxed);
      victim->preparedBytes = 0;
      programEvictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- circuit breaker ----

  /// Failures that count toward quarantine: the job executed (or attempted
  /// preparation) and died on a program-attributable fault — traps,
  /// kill-budget exhaustion, watchdogs, deadlocks. Host-side outcomes
  /// (deadline, overload, an already-open circuit) never poison the program.
  static bool countsForBreaker(const Response& r) {
    if (r.ok || r.refusal != Refusal::None) return false;
    if (r.failure == nullptr) return true;  // trap / preparation failure
    return r.failure->kind != psim::FailureReport::Kind::Deadline;
  }

  void recordOutcome(Program& p, const Response& r, bool probe) {
    if (svc_.cfg_.breakerThreshold <= 0) return;
    bool failed = countsForBreaker(r);
    if (probe) {
      // Half-open verdict: a clean probe closes the circuit, a failed one
      // re-opens it for another cooldown. A probe that died on a service-
      // level outcome (deadline, shed) says nothing about program health —
      // release the probe slot and leave the circuit as it was, so the next
      // admission probes again.
      bool inconclusive = !r.ok && !failed;
      if (!inconclusive) {
        if (failed) {
          p.openedAtNs.store(nowNs(), std::memory_order_relaxed);
        } else {
          p.openedAtNs.store(0, std::memory_order_relaxed);
          p.consecFailures.store(0, std::memory_order_relaxed);
        }
      }
      p.probeInflight.store(false, std::memory_order_release);
      return;
    }
    if (!failed) {
      p.consecFailures.store(0, std::memory_order_relaxed);
      return;
    }
    int c = p.consecFailures.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t expected = 0;
    if (c >= svc_.cfg_.breakerThreshold &&
        p.openedAtNs.compare_exchange_strong(expected, nowNs(),
                                             std::memory_order_relaxed))
      breakerOpens_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- completion plumbing ----

  static std::string tenantOf(const Request& req) {
    return req.tenant.empty() ? req.program : req.tenant;
  }

  /// The attribution line of a failure message: which request, which tenant.
  static std::string attribution(std::uint64_t id, const std::string& tenant) {
    std::string line = "\n  request " + std::to_string(id);
    if (!tenant.empty()) line += ", tenant '" + tenant + "'";
    return line;
  }

  /// A job answered without a VM run: overload, open circuit, or a deadline
  /// that expired before execution.
  static Response refusal(Refusal kind, const std::string& detail,
                          std::uint64_t id, const std::string& tenant) {
    static constexpr const char* kNames[] = {"", "overload", "circuit open",
                                             "deadline"};
    Response r;
    r.refusal = kind;
    r.error = std::string("gradient service ") +
              kNames[static_cast<int>(kind)] + ": " + detail +
              attribution(id, tenant);
    return r;
  }
  static Response refusal(Refusal kind, const std::string& detail,
                          const Request& req) {
    return refusal(kind, detail, req.id, tenantOf(req));
  }

  void deliver(Job& job, Response&& r) {
    r.doneAtNs = nowNs();
    r.requestId = job.req.id;
    r.tenant = tenantOf(job.req);
    if (r.retries > 0)
      retries_.fetch_add(static_cast<std::uint64_t>(r.retries),
                         std::memory_order_relaxed);
    if (r.refusal == Refusal::Deadline ||
        (r.failure != nullptr &&
         r.failure->kind == psim::FailureReport::Kind::Deadline))
      deadlineExpired_.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok) failed_.fetch_add(1, std::memory_order_relaxed);
    std::string tenant = r.tenant;
    // Count and free the tenant's inflight slot before resolving the future
    // (like the reject paths do): a client that has harvested every future
    // must observe completed == submitted, and one that re-submits right
    // after get() must find its slot already released.
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(tenantMu_);
      auto it = inflightByTenant_.find(tenant);
      if (it != inflightByTenant_.end() && --it->second <= 0)
        inflightByTenant_.erase(it);
    }
    job.promise.set_value(std::move(r));
    std::lock_guard<std::mutex> lock(drainMu_);
    drainCv_.notify_all();
  }

  void failJob(Job& job, const std::string& msg) {
    Response r;
    r.ok = false;
    r.error = msg;
    deliver(job, std::move(r));
  }

  void refuseJob(Job& job, Refusal kind, const std::string& detail) {
    deliver(job, refusal(kind, detail, job.req));
  }

  // ---- execution ----

  psim::MachineConfig machineConfig() const {
    psim::MachineConfig mc;
    mc.watchdogVirtualNs = svc_.cfg_.watchdogVirtualNs;
    mc.watchdogInsts = svc_.cfg_.watchdogInsts;
    return mc;
  }

  /// One execution attempt of one request on its own Machine through the
  /// plain gradient function, with the request's fault plan (if any) armed
  /// on that VM only. `attempt` offsets the fault seed — the retry policy's
  /// "fresh hardware" model: a re-dispatched job draws a different fault
  /// schedule, exactly as a real retry lands on a different node. A nonzero
  /// `deadlineNs` arms a host-cancel flag so the run aborts with a
  /// structured Deadline report when the host clock passes it mid-run.
  Response executeAttempt(Program& p, const Request& req,
                          const std::string& engine, int attempt,
                          std::uint64_t deadlineNs) {
    Response r;
    r.isolated = true;
    r.engine = engine;
    if (deadlineNs != 0 && nowNs() >= deadlineNs) {
      r = refusal(Refusal::Deadline,
                  "deadline expired before execution of program '" +
                      req.program + "'",
                  req);
      r.isolated = true;
      r.engine = engine;
      return r;
    }
    std::shared_ptr<std::atomic<bool>> cancel;
    try {
      psim::MachineConfig mc = machineConfig();
      if (!req.faultSpec.empty()) {
        mc.faults = psim::parseFaultSpec(req.faultSpec);
        mc.faults.seed += static_cast<std::uint64_t>(attempt);
        // Durable warm retries: give every checkpointing fault-injected job
        // a per-job epoch directory (stable across attempts — the retry
        // Machine re-seats from the epochs the failed attempt published). An
        // explicit ckpt_dir= in the request's fault spec wins.
        if (!svc_.cfg_.ckptDir.empty() && mc.faults.ckptInterval > 0 &&
            mc.faults.ckptDir.empty())
          mc.faults.ckptDir =
              svc_.cfg_.ckptDir + "/job_" + std::to_string(req.id);
      }
      if (deadlineNs != 0) {
        cancel = armDeadline(deadlineNs);
        mc.cancel = cancel.get();
      }
      psim::Machine m(mc);
      psim::RtPtr x = m.mem().alloc(ir::Type::F64, p.n, 0);
      psim::RtPtr dx = m.mem().alloc(ir::Type::F64, p.n, 0);
      for (i64 k = 0; k < p.n; ++k)
        m.mem().atF(x, k) = req.inputs[static_cast<std::size_t>(k)];
      const ir::Function& grad = p.mod.get(p.gi.name);
      interp::RtVal out{};
      r.virtualNs = m.run({1, p.threads}, [&](psim::RankEnv& env) {
        interp::Interpreter it(p.mod, m, engine);
        out = it.run(grad,
                     {interp::RtVal::P(x), interp::RtVal::I(p.n),
                      interp::RtVal::P(dx), interp::RtVal::F(req.seed)},
                     env);
      });
      r.primal = out.u.f;
      r.gradient.resize(static_cast<std::size_t>(p.n));
      for (i64 k = 0; k < p.n; ++k)
        r.gradient[static_cast<std::size_t>(k)] = m.mem().atF(dx, k);
      r.stats = m.stats();
      r.ok = true;
    } catch (const psim::VmError& e) {
      r.gradient.clear();
      r.failure = std::make_shared<psim::FailureReport>(e.report());
      // The attribution line goes right after the report's headline.
      r.error = e.what();
      r.error.insert(std::min(r.error.find('\n'), r.error.size()),
                     attribution(req.id, tenantOf(req)));
    } catch (const Error& e) {
      r.gradient.clear();
      r.error = e.what();
    }
    isolatedRuns_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }

  /// True for failures the retry policy treats as transient: the virtual
  /// hardware killed the run (rank crash past its recovery budget). Traps,
  /// watchdogs and deadline expiry are job- or host-attributable and never
  /// retried.
  static bool isTransient(const Response& r) {
    return !r.ok && r.failure != nullptr &&
           r.failure->kind == psim::FailureReport::Kind::RankKilled;
  }

  /// Isolated execution with the per-job retry policy: up to `retryMax`
  /// re-dispatches after transient failures, sleeping a deterministic
  /// exponential backoff (base * 2^attempt) between attempts, never past the
  /// job's deadline. The successful attempt's gradient is bit-identical to a
  /// single-shot run — each attempt is a fresh Machine; only the fault seed
  /// differs.
  Response executeIsolated(Program& p, const Request& req,
                           const std::string& engine,
                           std::uint64_t deadlineNs) {
    int budget = req.retryMax >= 0 ? req.retryMax : svc_.cfg_.retryMax;
    for (int attempt = 0;; ++attempt) {
      Response r = executeAttempt(p, req, engine, attempt, deadlineNs);
      r.retries = attempt;
      // Attempts re-seated from the job's durable epoch.
      if (r.stats.durableResumes > 0)
        warmResumes_.fetch_add(r.stats.durableResumes,
                               std::memory_order_relaxed);
      if (r.ok || !isTransient(r) || attempt >= budget) return r;
      double backoffNs = std::min(
          std::ldexp(svc_.cfg_.retryBackoffUs * 1000.0, attempt), kMaxTimeNs);
      if (backoffNs > 0) {
        std::uint64_t wake = nowNs() + static_cast<std::uint64_t>(backoffNs);
        if (deadlineNs != 0 && wake >= deadlineNs) return r;  // budget < time
        std::uint64_t nw = nowNs();
        if (wake > nw)
          std::this_thread::sleep_for(std::chrono::nanoseconds(wake - nw));
      }
    }
  }

  /// Executes a flushed batch: clean requests as one batched VM run, fault-
  /// carrying requests each on their own VM. A failing batched run degrades
  /// to per-request isolated re-execution so one poisoned input cannot take
  /// its batch-mates down with it; a batch cancelled by its earliest
  /// member's deadline degrades the same way, so only the expired jobs die
  /// (with structured Deadline reports) and their batch-mates still succeed.
  void executeBatch(BatchWork&& bw) {
    Program& p = *bw.prog;
    const std::size_t nJobs = bw.jobs.size();
    bool cold = false;
    try {
      cold = ensurePrepared(p);
    } catch (const Error& e) {
      for (Job& j : bw.jobs) {
        Response r;
        r.ok = false;
        r.error = std::string("serve: program preparation failed: ") +
                  e.what();
        recordOutcome(p, r, j.probe);
        deliver(j, std::move(r));
      }
      p.inflight.fetch_sub(static_cast<int>(nJobs),
                           std::memory_order_release);
      sweepRegistry();
      return;
    }
    const int batchSize = static_cast<int>(bw.jobs.size());

    // Queued-deadline check: a job whose deadline passed while it sat in the
    // pipeline is answered without a VM run (its batch-mates proceed).
    std::vector<Job*> clean, faulted;
    std::uint64_t now = nowNs();
    for (Job& j : bw.jobs) {
      if (j.deadlineNs != 0 && now >= j.deadlineNs) {
        Response r = refusal(
            Refusal::Deadline,
            "deadline expired in queue for program '" + j.req.program + "'",
            j.req);
        recordOutcome(p, r, j.probe);  // no-op for Deadline, keeps one path
        deliver(j, std::move(r));
        continue;
      }
      (j.req.faultSpec.empty() ? clean : faulted).push_back(&j);
    }

    if (!clean.empty()) {
      const i64 B = static_cast<i64>(clean.size());
      bool batchedOk = false;
      std::vector<Response> results(clean.size());
      // Arm the batch's cancel flag on the earliest member deadline; a
      // cancelled batch falls back to per-job isolation below, where each
      // job's own deadline decides its fate.
      std::uint64_t minDeadline = 0;
      for (Job* j : clean)
        if (j->deadlineNs != 0 &&
            (minDeadline == 0 || j->deadlineNs < minDeadline))
          minDeadline = j->deadlineNs;
      std::shared_ptr<std::atomic<bool>> cancel;
      try {
        psim::MachineConfig mc = machineConfig();
        if (minDeadline != 0) {
          cancel = armDeadline(minDeadline);
          mc.cancel = cancel.get();
        }
        psim::Machine m(mc);
        psim::RtPtr xs = m.mem().alloc(ir::Type::F64, B * p.n, 0);
        psim::RtPtr dxs = m.mem().alloc(ir::Type::F64, B * p.n, 0);
        psim::RtPtr seeds = m.mem().alloc(ir::Type::F64, B, 0);
        psim::RtPtr primals = m.mem().alloc(ir::Type::F64, B, 0);
        for (i64 b = 0; b < B; ++b) {
          const Request& req = clean[static_cast<std::size_t>(b)]->req;
          m.mem().atF(seeds, b) = req.seed;
          for (i64 k = 0; k < p.n; ++k)
            m.mem().atF(xs, b * p.n + k) =
                req.inputs[static_cast<std::size_t>(k)];
        }
        const ir::Function& batchFn = p.mod.get(p.bi.name);
        double makespan = m.run({1, p.threads}, [&](psim::RankEnv& env) {
          interp::Interpreter it(p.mod, m, bw.engine);
          it.run(batchFn,
                 {interp::RtVal::P(xs), interp::RtVal::I(p.n),
                  interp::RtVal::P(dxs), interp::RtVal::P(seeds),
                  interp::RtVal::P(primals), interp::RtVal::I(B)},
                 env);
        });
        for (i64 b = 0; b < B; ++b) {
          Response& r = results[static_cast<std::size_t>(b)];
          r.ok = true;
          r.primal = m.mem().atF(primals, b);
          r.gradient.resize(static_cast<std::size_t>(p.n));
          for (i64 k = 0; k < p.n; ++k)
            r.gradient[static_cast<std::size_t>(k)] =
                m.mem().atF(dxs, b * p.n + k);
          r.virtualNs = makespan;
          r.stats = m.stats();
        }
        batchedOk = true;
      } catch (const Error&) {
        // The batch VM died (an input-dependent trap, or the deadline
        // monitor cancelled the run). Fall back to per-request isolation
        // below: the culprit fails alone with its own structured report,
        // everyone else still gets a bit-exact result.
        batchFallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      if (batchedOk) {
        nBatches_.fetch_add(1, std::memory_order_relaxed);
        batchedRequests_.fetch_add(static_cast<std::uint64_t>(B),
                                   std::memory_order_relaxed);
        std::uint64_t prev = maxBatchObserved_.load(std::memory_order_relaxed);
        while (prev < static_cast<std::uint64_t>(B) &&
               !maxBatchObserved_.compare_exchange_weak(
                   prev, static_cast<std::uint64_t>(B),
                   std::memory_order_relaxed)) {
        }
        for (std::size_t i = 0; i < clean.size(); ++i) {
          Response r = std::move(results[i]);
          r.batchSize = batchSize;
          r.coldCompile = cold;
          r.engine = bw.engine;
          recordOutcome(p, r, clean[i]->probe);
          deliver(*clean[i], std::move(r));
        }
      } else {
        for (Job* j : clean) {
          Response r = executeIsolated(p, j->req, bw.engine, j->deadlineNs);
          r.batchSize = batchSize;
          r.coldCompile = cold;
          recordOutcome(p, r, j->probe);
          deliver(*j, std::move(r));
        }
      }
    }
    for (Job* j : faulted) {
      Response r = executeIsolated(p, j->req, bw.engine, j->deadlineNs);
      r.batchSize = batchSize;
      r.coldCompile = cold;
      recordOutcome(p, r, j->probe);
      deliver(*j, std::move(r));
    }
    p.inflight.fetch_sub(static_cast<int>(nJobs), std::memory_order_release);
    sweepRegistry();
  }

  // ---- batcher ----

  struct Pending {
    BatchWork work;
    std::uint64_t deadlineNs = 0;  // host time at which this batch flushes
  };

  void flush(std::map<std::pair<Program*, std::string>, Pending>& pending,
             std::map<std::pair<Program*, std::string>, Pending>::iterator it) {
    batches_.push(std::move(it->second.work));
    pending.erase(it);
  }

  void batcherLoop() {
    using Key = std::pair<Program*, std::string>;
    std::map<Key, Pending> pending;
    const std::uint64_t maxDelayNs = static_cast<std::uint64_t>(
        std::max(0.0, svc_.cfg_.maxDelayUs) * 1000.0);
    for (;;) {
      std::uint64_t now = nowNs();
      std::uint64_t waitNs = maxDelayNs > 0 ? maxDelayNs : 1000000;
      for (const auto& [k, pd] : pending)
        waitNs = std::min(waitNs,
                          pd.deadlineNs > now ? pd.deadlineNs - now : 1);
      std::optional<Job> item =
          pending.empty() ? requests_.pop()
                          : requests_.popFor(std::chrono::nanoseconds(waitNs));
      if (item.has_value()) {
        admit(std::move(*item), pending, maxDelayNs);
      } else if (requests_.closed() && requests_.size() == 0) {
        for (auto it = pending.begin(); it != pending.end();)
          flush(pending, it++);
        break;
      }
      // Flush every batch whose oldest member has waited out the max delay,
      // and (when the queue went idle) everything else ready to go.
      std::uint64_t t = nowNs();
      for (auto it = pending.begin(); it != pending.end();) {
        auto cur = it++;
        if (t >= cur->second.deadlineNs) flush(pending, cur);
      }
    }
  }

  void admit(Job&& job, std::map<std::pair<Program*, std::string>,
                                 Pending>& pending,
             std::uint64_t maxDelayNs) {
    Program* prog = findProgram(job.req.program);
    if (prog == nullptr) {
      failJob(job, "serve: unknown program '" + job.req.program + "'");
      return;
    }
    if (static_cast<i64>(job.req.inputs.size()) != prog->n) {
      failJob(job, "serve: program '" + job.req.program + "' expects " +
                       std::to_string(prog->n) + " inputs, got " +
                       std::to_string(job.req.inputs.size()));
      return;
    }
    std::string engine;
    try {
      engine = resolveEngine(job.req.engine);
    } catch (const Error& e) {
      failJob(job, e.what());
      return;
    }
    // Queued-deadline expiry: answered here, at admission, without ever
    // reaching a worker or a VM.
    if (job.deadlineNs != 0 && nowNs() >= job.deadlineNs) {
      refuseJob(job, Refusal::Deadline,
                "deadline expired in queue for program '" + job.req.program +
                    "'");
      return;
    }
    // Circuit breaker: an open circuit short-circuits jobs here (no worker
    // consumed). Once the cooldown passes, exactly one job is admitted as
    // the half-open probe; its outcome closes or re-opens the circuit.
    if (svc_.cfg_.breakerThreshold > 0) {
      std::uint64_t opened = prog->openedAtNs.load(std::memory_order_relaxed);
      if (opened != 0) {
        std::uint64_t cooldownNs = static_cast<std::uint64_t>(
            std::max(0.0, svc_.cfg_.breakerCooldownMs) * 1e6);
        bool expected = false;
        if (nowNs() >= opened + cooldownNs &&
            prog->probeInflight.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          job.probe = true;
          breakerProbes_.fetch_add(1, std::memory_order_relaxed);
        } else {
          breakerShortCircuits_.fetch_add(1, std::memory_order_relaxed);
          refuseJob(
              job, Refusal::CircuitOpen,
              "program '" + job.req.program + "' quarantined after " +
                  std::to_string(prog->consecFailures.load(
                      std::memory_order_relaxed)) +
                  " consecutive failures (cooldown " +
                  std::to_string(svc_.cfg_.breakerCooldownMs) + " ms)");
          return;
        }
      }
    }
    prog->inflight.fetch_add(1, std::memory_order_acq_rel);
    prog->lastUsedNs.store(nowNs(), std::memory_order_relaxed);
    std::pair<Program*, std::string> key{prog, engine};
    auto it = pending.find(key);
    if (it == pending.end()) {
      Pending pd;
      pd.work.prog = prog;
      pd.work.engine = engine;
      pd.deadlineNs = nowNs() + maxDelayNs;
      it = pending.emplace(key, std::move(pd)).first;
    }
    it->second.work.jobs.push_back(std::move(job));
    if (static_cast<int>(it->second.work.jobs.size()) >= svc_.cfg_.maxBatch)
      flush(pending, it);
  }

  void workerLoop() {
    while (std::optional<BatchWork> bw = batches_.pop())
      executeBatch(std::move(*bw));
  }
};

// ---------------------------------------------------------------------------
// Public surface.

GradientService::GradientService(ServeConfig cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(*this)) {
  PARAD_CHECK(cfg_.workers >= 1, "serve: need at least one worker");
  PARAD_CHECK(cfg_.maxBatch >= 1, "serve: max batch must be >= 1");
  impl_->dlThread_ = std::thread([this] { impl_->deadlineLoop(); });
  impl_->batcher_ = std::thread([this] { impl_->batcherLoop(); });
  for (int i = 0; i < cfg_.workers; ++i)
    impl_->workers_.emplace_back([this] { impl_->workerLoop(); });
}

GradientService::~GradientService() {
  impl_->requests_.close();
  impl_->batcher_.join();
  impl_->batches_.close();
  for (std::thread& w : impl_->workers_) w.join();
  {
    std::lock_guard<std::mutex> lock(impl_->dlMu_);
    impl_->dlStop_ = true;
  }
  impl_->dlCv_.notify_all();
  impl_->dlThread_.join();
}

void GradientService::registerProgram(
    const std::string& name, const std::function<void(ir::Module&)>& build,
    const std::string& primal, i64 n, int threadsPerRank) {
  PARAD_CHECK(n > 0, "serve: program ", name, " needs a positive input size");
  int threads = threadsPerRank > 0 ? threadsPerRank : cfg_.threadsPerRank;
  auto prog = std::make_unique<Impl::Program>();
  build(prog->mod);
  PARAD_CHECK(prog->mod.has(primal), "serve: builder for ", name,
              " did not emit primal function ", primal);
  const ir::Function& fn = prog->mod.get(primal);
  PARAD_CHECK(fn.paramTypes.size() == 2 &&
                  fn.paramTypes[0] == ir::Type::PtrF64 &&
                  fn.paramTypes[1] == ir::Type::I64 &&
                  fn.retType == ir::Type::F64,
              "serve: program ", name,
              " must have the canonical servable signature "
              "f(x: ptr<f64>, n: i64) -> f64");
  prog->primal = primal;
  prog->n = n;
  prog->threads = threads;
  prog->primalFp = interp::fingerprint(fn);

  std::lock_guard<std::mutex> lock(impl_->progMu_);
  PARAD_CHECK(impl_->byName_.count(name) == 0, "serve: program ", name,
              " already registered");
  // Same-fingerprint admission: tenants whose primal IR is structurally
  // identical share one prepared program — one gradient generation, one set
  // of cache entries, shared batches.
  std::tuple<std::uint64_t, i64, int> fpKey{prog->primalFp, n, threads};
  auto shared = impl_->byFp_.find(fpKey);
  if (shared != impl_->byFp_.end()) {
    impl_->byName_.emplace(name, shared->second);
    return;
  }
  Impl::Program* raw = prog.get();
  impl_->programs_.push_back(std::move(prog));
  impl_->byFp_.emplace(fpKey, raw);
  impl_->byName_.emplace(name, raw);
}

std::future<Response> GradientService::submit(Request req) {
  Impl& im = *impl_;
  std::uint64_t now = nowNs();
  if (req.id == 0)
    req.id = im.nextId_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t id = req.id;
  const std::string tenant = Impl::tenantOf(req);
  im.submitted_.fetch_add(1, std::memory_order_relaxed);

  // Answers a request that never reaches the queue, keeping the counters
  // coherent with drain()'s submitted == completed invariant.
  auto answerNow = [&](Response r) -> std::future<Response> {
    r.doneAtNs = nowNs();
    r.requestId = id;
    r.tenant = tenant;
    im.failed_.fetch_add(1, std::memory_order_relaxed);
    im.completed_.fetch_add(1, std::memory_order_relaxed);
    std::promise<Response> p;
    p.set_value(std::move(r));
    std::lock_guard<std::mutex> lock(im.drainMu_);
    im.drainCv_.notify_all();
    return p.get_future();
  };

  // A deadline no clock can hold is a malformed request.
  std::uint64_t deadlineNs = 0;
  try {
    deadlineNs =
        deadlineAt(now, req.deadlineMs != 0 ? req.deadlineMs : cfg_.deadlineMs);
  } catch (const Error& e) {
    Response r;
    r.error = e.what();
    return answerNow(std::move(r));
  }

  // Per-tenant admission: token-bucket rate, then the inflight cap. Both
  // shed immediately — a throttled tenant cannot stall anyone's producers.
  if (!im.admitRate(tenant, now)) {
    im.shedRate_.fetch_add(1, std::memory_order_relaxed);
    return answerNow(Impl::refusal(
        Refusal::Overload,
        "tenant '" + tenant + "' exceeded its rate limit (" +
            std::to_string(cfg_.ratePerSec) + " req/s)",
        req));
  }
  {
    std::unique_lock<std::mutex> lock(im.tenantMu_);
    std::int64_t& inflight = im.inflightByTenant_[tenant];
    if (cfg_.maxInflight > 0 && inflight >= cfg_.maxInflight) {
      lock.unlock();
      im.shedInflight_.fetch_add(1, std::memory_order_relaxed);
      return answerNow(Impl::refusal(Refusal::Overload,
                                     "tenant '" + tenant + "' has " +
                                         std::to_string(cfg_.maxInflight) +
                                         " requests in flight (inflight cap)",
                                     req));
    }
    ++inflight;
  }

  Impl::Job job;
  job.deadlineNs = deadlineNs;
  job.req = std::move(req);
  std::future<Response> fut = job.promise.get_future();
  if (im.requests_.tryPush(std::move(job))) return fut;
  // The moved-from job's promise died inside tryPush; answer through a
  // fresh one. Undo the inflight charge — this request never runs.
  {
    std::lock_guard<std::mutex> lock(im.tenantMu_);
    auto it = im.inflightByTenant_.find(tenant);
    if (it != im.inflightByTenant_.end() && --it->second <= 0)
      im.inflightByTenant_.erase(it);
  }
  if (im.requests_.closed()) {
    Response r;
    r.error = "serve: service is shutting down";
    return answerNow(std::move(r));
  }
  im.shedOverload_.fetch_add(1, std::memory_order_relaxed);
  return answerNow(Impl::refusal(Refusal::Overload,
                                 "request queue full (capacity " +
                                     std::to_string(cfg_.queueCapacity) +
                                     "), load shed",
                                 id, tenant));
}

Response GradientService::call(Request req) {
  return submit(std::move(req)).get();
}

Response GradientService::callDirect(const Request& req) {
  Impl::Program* prog = impl_->findProgram(req.program);
  if (prog == nullptr) {
    Response r;
    r.error = "serve: unknown program '" + req.program + "'";
    return r;
  }
  Response r;
  // The reference path skips admission control (it is the oracle the
  // admission-controlled path is measured against) but shares the retry and
  // per-request deadline machinery, and pins the program against eviction
  // for the duration of the run like any batched job.
  prog->inflight.fetch_add(1, std::memory_order_acq_rel);
  prog->lastUsedNs.store(nowNs(), std::memory_order_relaxed);
  try {
    bool cold = impl_->ensurePrepared(*prog);
    std::string engine = impl_->resolveEngine(req.engine);
    std::uint64_t deadlineNs = deadlineAt(nowNs(), req.deadlineMs);
    r = impl_->executeIsolated(*prog, req, engine, deadlineNs);
    r.batchSize = 1;
    r.coldCompile = cold;
  } catch (const Error& e) {
    r.ok = false;
    r.error = e.what();
  }
  prog->inflight.fetch_sub(1, std::memory_order_release);
  impl_->sweepRegistry();
  r.requestId = req.id;
  r.tenant = Impl::tenantOf(req);
  r.doneAtNs = nowNs();
  return r;
}

void GradientService::drain() {
  std::unique_lock<std::mutex> lock(impl_->drainMu_);
  impl_->drainCv_.wait(lock, [&] {
    return impl_->completed_.load(std::memory_order_acquire) >=
           impl_->submitted_.load(std::memory_order_acquire);
  });
}

ServiceStats GradientService::stats() const {
  ServiceStats s;
  s.submitted = impl_->submitted_.load(std::memory_order_relaxed);
  s.completed = impl_->completed_.load(std::memory_order_relaxed);
  s.failed = impl_->failed_.load(std::memory_order_relaxed);
  s.batches = impl_->nBatches_.load(std::memory_order_relaxed);
  s.batchedRequests = impl_->batchedRequests_.load(std::memory_order_relaxed);
  s.maxBatchObserved =
      impl_->maxBatchObserved_.load(std::memory_order_relaxed);
  s.isolatedRuns = impl_->isolatedRuns_.load(std::memory_order_relaxed);
  s.batchFallbacks = impl_->batchFallbacks_.load(std::memory_order_relaxed);
  s.coldCompiles = impl_->coldCompiles_.load(std::memory_order_relaxed);
  s.shedOverload = impl_->shedOverload_.load(std::memory_order_relaxed);
  s.shedRate = impl_->shedRate_.load(std::memory_order_relaxed);
  s.shedInflight = impl_->shedInflight_.load(std::memory_order_relaxed);
  s.deadlineExpired = impl_->deadlineExpired_.load(std::memory_order_relaxed);
  s.retries = impl_->retries_.load(std::memory_order_relaxed);
  s.warmResumes = impl_->warmResumes_.load(std::memory_order_relaxed);
  s.breakerOpens = impl_->breakerOpens_.load(std::memory_order_relaxed);
  s.breakerShortCircuits =
      impl_->breakerShortCircuits_.load(std::memory_order_relaxed);
  s.breakerProbes = impl_->breakerProbes_.load(std::memory_order_relaxed);
  s.programEvictions =
      impl_->programEvictions_.load(std::memory_order_relaxed);
  s.registryBytes = impl_->registryBytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace parad::serve
