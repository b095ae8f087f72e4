// The compile-once closed-loop workload (mp_halo) and the compile-per-op
// sweep (compile_sweep).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "perfbench/programs.h"
#include "perfbench/trace.h"
#include "src/interp/lower.h"
#include "src/psim/sim.h"
#include "src/support/rng.h"

namespace perfbench {

namespace {

using parad::interp::ProgramCache;

struct Window {
  std::vector<double> latMs;
  std::uint64_t startNs = 0, lastNs = 0;
  std::uint64_t cacheHits = 0, cacheMisses = 0;
  double seconds() const { return double(lastNs - startNs) * 1e-9; }
};

/// Checks one op's output, applying the self-test perturbation first.
/// Returns true when the op verified.
bool verifyOp(Result& res, const Options& o, long op, const Reference& ref,
              RunOut& out, const char* what) {
  trace::Span s("bench.verify", op);
  if (op == o.perturbOp && !out.grad.empty())
    out.grad[0] += 1e-6 * std::max(1.0, std::abs(out.grad[0]));
  std::string err = check(ref, out);
  if (err.empty() && (out.stats.instsExecuted != ref.exec.stats.instsExecuted ||
                      out.makespan != ref.exec.makespan ||
                      out.stats.messages != ref.exec.stats.messages))
    err = "exact counts drifted from the reference run";
  if (err.empty()) return true;
  if (res.notes.size() < 20)
    res.notes.push_back("op " + std::to_string(op) + " (" + what +
                        ") failed: " + err);
  return false;
}

/// Runs `body(op)` back to back for `seconds`; body returns true when the op
/// verified. Latency is the op's wall time, verification included.
template <typename Body>
Window closedLoop(Result& res, double seconds, long& nextOp, Body body) {
  Window w;
  const ProgramCache& pc = ProgramCache::global();
  std::uint64_t hits0 = pc.hits(), misses0 = pc.misses();
  w.startNs = w.lastNs = nowNs();
  std::uint64_t end = w.startNs + std::uint64_t(seconds * 1e9);
  while (nowNs() < end) {
    long op = nextOp++;
    std::uint64_t t0 = nowNs();
    bool ok;
    {
      trace::Span s("bench.op", op);
      ok = body(op);
    }
    w.lastNs = nowNs();
    res.attempted++;
    if (!ok) res.failed++;
    else w.latMs.push_back(double(w.lastNs - t0) * 1e-6);
  }
  w.cacheHits = pc.hits() - hits0;
  w.cacheMisses = pc.misses() - misses0;
  return w;
}

/// Records the exact counts of one compiled variant. They are taken on the
/// fixed kFingerprintSeed inputs, not the run's seed: some virtual times
/// depend on the data (e.g. which rank wins the timestep allreduce), and the
/// fingerprint must be the same for every seed.
void fingerprintVariant(Result& res, const std::string& prefix,
                         const Variant& v, const Compiled& c) {
  Inputs in = makeInputs(v, kFingerprintSeed);
  RunOut primal = run(v, c, in, false, "exec", -1);
  RunOut grad = run(v, c, in, true, "exec", -1);
  fingerprintCompile(res, prefix, c);
  auto& f = res.fingerprint;
  f[prefix + "primal_virtual_ns"] = primal.makespan;
  f[prefix + "primal_insts"] = double(primal.stats.instsExecuted);
  f[prefix + "grad_virtual_ns"] = grad.makespan;
  f[prefix + "grad_insts"] = double(grad.stats.instsExecuted);
  f[prefix + "grad_messages"] = double(grad.stats.messages);
  f[prefix + "grad_cache_bytes"] = double(grad.stats.cacheBytes);
}

/// One compiled program and its reference run.
struct Program {
  const Compiled* compiled;
  const Reference* ref;
};

/// Sets the per-layer metrics of a traced closed-loop run. Static and
/// per-run counts are summed over `progs` (compile_sweep: one compile and
/// run of each variant), except interp.insts_per_op and core.plan_ms, their
/// means;
/// `tracedInsts` is the instructions the traced ops executed.
void tracedMetrics(Result& res, const Options& o,
                   const std::vector<Program>& progs, const Window& plain,
                   const Window& traced, double tracedInsts,
                   parad::psim::Machine::Launch launch) {
  initLayerMetrics(res);
  auto add = [&](const char* name, double v) { res.metrics[name].first += v; };
  for (const Program& p : progs) {
    const Compiled& c = *p.compiled;
    const parad::psim::RunStats& st = p.ref->exec.stats;
    add("ir.insts_primal", double(c.instsPrimal));
    add("ir.insts_grad", double(c.instsGrad));
    addPlanMetrics(res, c, p.ref->exec);
    add("interp.lower_bytes", double(c.lowerBytes));
    add("interp.insts_per_op", double(st.instsExecuted) / double(progs.size()));
    add("psim.context_switches", double(p.ref->exec.contextSwitches));
    add("psim.messages", double(st.messages));
    add("psim.bytes_sent", double(st.bytesSent));
    add("psim.collective_stages", double(st.collectiveStages));
    add("psim.atomic_ops", double(st.atomicOps));
    add("psim.virtual_ns", p.ref->gradNs);
    add("psim.peak_live_bytes", double(st.peakLiveBytes));
  }
  res.set("ir.build_ms", meanSpanMs("ir.build"), "ms");
  res.set("passes.prepare_ms", meanSpanMs("passes.prepare"), "ms");
  res.set("passes.optimize_ms", meanSpanMs("passes.optimize"), "ms");
  double plan = 0;
  for (const Program& p : progs) plan += planMs(*p.compiled);
  res.set("core.plan_ms", plan / double(progs.size()), "ms");
  res.set("core.generate_ms", meanSpanMs("core.generate"), "ms");
  res.set("interp.lower_ms", meanSpanMs("interp.lower"), "ms");
  trace::NameTotal interp = trace::totalOf("interp.run", true);
  res.set("interp.minst_per_s",
          interp.cpuMs > 0 ? tracedInsts / (interp.cpuMs * 1e-3) / 1e6 : 0,
          "Minst/s");
  res.set("interp.program_cache_hits", double(traced.cacheHits), "count");
  res.set("interp.program_cache_misses", double(traced.cacheMisses), "count");
  res.set("psim.run_ms", meanSpanMs("psim.run"), "ms");
  res.set("psim.empty_run_us", emptyRunUs(launch.ranks, launch.threadsPerRank),
          "us");
  selfTimeMetrics(res, o.workload);
  // Relative slowdown of the traced half over the untraced half.
  double a = median(plain.latMs), b = median(traced.latMs);
  res.set("bench.trace_overhead_frac", a > 0 ? b / a - 1 : 0, "frac");
  writeTrace(res, o);
}

Result runClosedLoop(const Options& o, const Variant& v,
                     std::uint64_t processStartNs) {
  Result res;
  trace::enable(o.trace);
  SetupClock clock;
  std::optional<Compiled> c;
  Inputs in;
  RunOut warm;
  auto setUp = [&] {
    c.reset();
    clock.begin();
    c.emplace(compile(v, -1));
    in = makeInputs(v, o.seed);
    warm = run(v, *c, in, true, "exec", -1);
    clock.end(processStartNs);
  };
  while (moreSetupBefore(clock)) setUp();
  trace::enable(false);
  Reference ref = buildReference(v, *c, in);
  if (!ref.error.empty() || !check(ref, warm).empty()) {
    res.referenceOk = false;
    res.notes.push_back("reference check failed: " + ref.error +
                        check(ref, warm));
  }
  fingerprintVariant(res, "", v, *c);

  auto body = [&](long op) {
    RunOut out = run(v, *c, in, true, "exec", op);
    return verifyOp(res, o, op, ref, out, v.name.c_str());
  };
  long nextOp = 0;
  if (!o.trace) {
    Window w = closedLoop(res, o.seconds, nextOp, body);
    while (moreSetupAfter(clock)) setUp();
    endToEnd(res, clock, w.latMs, w.seconds(), ref.gradNs / ref.primalNs);
    return res;
  }

  Window plain = closedLoop(res, o.seconds / 2, nextOp, body);
  const long firstTraced = nextOp;
  trace::enable(true);
  Window traced = closedLoop(res, o.seconds / 2, nextOp, body);
  trace::enable(false);
  tracedMetrics(res, o, {{&*c, &ref}}, plain, traced,
                double(ref.exec.stats.instsExecuted) * double(nextOp - firstTraced),
                {v.ranks(), v.threads});
  return res;
}

}  // namespace

Result runMpHalo(const Options& o, std::uint64_t processStartNs) {
  return runClosedLoop(o, mpHaloVariant(), processStartNs);
}

Result runCompileSweep(const Options& o, std::uint64_t processStartNs) {
  Result res;
  const std::vector<Variant> variants = sweepVariants();
  const std::size_t nv = variants.size();
  // The seed draws the order the variants are compiled in; ops cycle it.
  std::vector<std::size_t> order(nv);
  for (std::size_t i = 0; i < nv; ++i) order[i] = i;
  parad::Rng rng(o.seed ^ 0x5eedc0de);
  for (std::size_t i = nv - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);

  std::vector<Inputs> inputs;
  for (const Variant& v : variants) inputs.push_back(makeInputs(v, o.seed));

  trace::enable(o.trace);
  SetupClock clock;
  std::vector<std::optional<Compiled>> compiled(nv);
  std::vector<RunOut> warm(nv);
  auto setUp = [&] {
    for (auto& c : compiled) c.reset();
    clock.begin();
    for (std::size_t i : order) {
      compiled[i].emplace(compile(variants[i], -1));
      warm[i] = run(variants[i], *compiled[i], inputs[i], true, "exec", -1);
    }
    clock.end(processStartNs);
  };
  while (moreSetupBefore(clock)) setUp();
  trace::enable(false);

  std::vector<Reference> refs;
  double logOverhead = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    const Variant& v = variants[i];
    refs.push_back(buildReference(v, *compiled[i], inputs[i]));
    const Reference& ref = refs.back();
    if (!ref.error.empty() || !check(ref, warm[i]).empty()) {
      res.referenceOk = false;
      res.notes.push_back(v.name + " reference check failed: " + ref.error +
                          check(ref, warm[i]));
    }
    fingerprintVariant(res, v.name + ".", v, *compiled[i]);
    logOverhead += std::log(ref.gradNs / ref.primalNs);
  }
  const double gradOverhead = std::exp(logOverhead / double(nv));

  auto body = [&](long op) {
    std::size_t i = order[std::size_t(op) % nv];
    const Variant& v = variants[i];
    Compiled c = compile(v, op);
    const Compiled& want = *compiled[i];
    RunOut out = run(v, c, inputs[i], true, "exec", op);
    bool ok = verifyOp(res, o, op, refs[i], out, v.name.c_str());
    if (ok && (c.instsPrimal != want.instsPrimal ||
               c.instsGrad != want.instsGrad ||
               c.lowerBytes != want.lowerBytes)) {
      res.notes.push_back("op " + std::to_string(op) + " (" + v.name +
                          ") failed: compiled IR sizes drifted");
      ok = false;
    }
    return ok;
  };
  long nextOp = 0;
  if (!o.trace) {
    Window w = closedLoop(res, o.seconds, nextOp, body);
    while (moreSetupAfter(clock)) setUp();
    endToEnd(res, clock, w.latMs, w.seconds(), gradOverhead);
    return res;
  }

  Window plain = closedLoop(res, o.seconds / 2, nextOp, body);
  const long firstTraced = nextOp;
  trace::enable(true);
  Window traced = closedLoop(res, o.seconds / 2, nextOp, body);
  trace::enable(false);

  std::vector<Program> progs;
  for (std::size_t i = 0; i < nv; ++i) progs.push_back({&*compiled[i], &refs[i]});
  // Each traced op ran one variant's gradient.
  double tracedInsts = 0;
  for (long op = firstTraced; op < nextOp; ++op)
    tracedInsts += double(
        refs[order[std::size_t(op) % nv]].exec.stats.instsExecuted);
  tracedMetrics(res, o, progs, plain, traced, tracedInsts, {1, 4});
  return res;
}

}  // namespace perfbench
