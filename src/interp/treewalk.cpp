#include "src/interp/treewalk.h"

#include <algorithm>
#include <cmath>

#include "src/ir/printer.h"

namespace parad::interp {

using ir::Op;
using ir::Type;
using psim::RtPtr;

static const RtVal kNoOperand{};

// Collects every value id defined inside the instruction's regions (results
// and region args). Used to give fork threads private storage for SSA values
// that cross barrier-segment boundaries.
static void collectDefined(const ir::Inst& in, std::vector<int>& out) {
  for (const ir::Region& r : in.regions) {
    for (int a : r.args) out.push_back(a);
    for (const ir::Inst& i : r.insts) {
      if (i.result >= 0) out.push_back(i.result);
      collectDefined(i, out);
    }
  }
}

const std::vector<int>& TreeWalker::definedValues(const ir::Inst& in) {
  auto it = definedCache_.find(&in);
  if (it != definedCache_.end()) return it->second;
  std::vector<int> vals;
  collectDefined(in, vals);
  return definedCache_.emplace(&in, std::move(vals)).first->second;
}

RtVal TreeWalker::run(const ir::Function& fn, std::vector<RtVal> args,
                       psim::RankEnv& env) {
  PARAD_CHECK(args.size() == fn.paramTypes.size(),
              "wrong argument count calling @", fn.name);
  RankRun rr;
  rr.env = &env;
  ThreadState main;
  main.w = env.main;  // copy in; copied back out at the end
  main.tid = 0;
  main.nthreads = 1;
  rr.ts = &main;
  rr.root = &main;
  int taskWorkers = machine_.config().taskWorkers;
  rr.taskWorkerFree.assign(
      static_cast<std::size_t>(taskWorkers > 0 ? taskWorkers
                                               : env.threadsPerRank),
      0.0);

  Frame f(static_cast<std::size_t>(fn.numValues()));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(fn.body.args[i])] = args[i];
  execRegion(fn, fn.body, f, rr);
  env.main = main.w;
  machine_.stats().instsExecuted += rr.insts;
  return rr.retVal;
}

TreeWalker::Flow TreeWalker::execRegion(const ir::Function& fn,
                                          const ir::Region& r, Frame& f,
                                          RankRun& rr) {
  for (const ir::Inst& in : r.insts)
    if (execInst(fn, in, f, rr) == Flow::Return) return Flow::Return;
  return Flow::Normal;
}

RtVal TreeWalker::callFunction(const ir::Function& callee,
                                std::vector<RtVal> args, RankRun& rr) {
  PARAD_CHECK(++rr.callDepth < machine_.config().maxCallDepth,
              "call depth limit exceeded (recursion?)");
  rr.ts->w.advance(machine_.config().cost.callCost);
  Frame f(static_cast<std::size_t>(callee.numValues()));
  PARAD_CHECK(args.size() == callee.paramTypes.size(),
              "wrong argument count calling @", callee.name);
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(callee.body.args[i])] = args[i];
  RtVal savedRet = rr.retVal;
  rr.retVal = RtVal{};
  execRegion(callee, callee.body, f, rr);
  RtVal out = rr.retVal;
  rr.retVal = savedRet;
  --rr.callDepth;
  return out;
}

TreeWalker::Flow TreeWalker::execFork(const ir::Function& fn,
                                        const ir::Inst& in, Frame& f,
                                        RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 nReq = f[static_cast<std::size_t>(in.operands[0])].u.i;
  int n = nReq > 0 ? static_cast<int>(nReq) : env.threadsPerRank;
  const ir::Region& body = in.regions[0];
  int tidArg = body.args[0];

  ThreadState* parent = rr.ts;
  parent->w.advance(c.forkBase + c.forkPerThread * n);

  double dil =
      std::max(1.0, static_cast<double>(n) * env.ranks /
                        machine_.config().totalCores()) *
      machine_.rankSlowdown(env.rank);

  // Thread contexts, pinned to modeled cores.
  std::vector<ThreadState> threads(static_cast<std::size_t>(n));
  machine_.removeWorkers(parent->w.socket, 1);
  for (int t = 0; t < n; ++t) {
    ThreadState& ts = threads[static_cast<std::size_t>(t)];
    ts.w.clock = parent->w.clock;
    ts.w.core = machine_.coreOfRankThread(env.rank, t);
    ts.w.socket = machine_.socketOfCore(ts.w.core);
    ts.w.dilation = dil;
    ts.tid = t;
    ts.nthreads = n;
    machine_.addWorkers(ts.w.socket, 1);
  }

  // Per-thread private storage for values defined inside the fork body (they
  // must survive across barrier-delimited segments per thread).
  const std::vector<int>& priv = definedValues(in);
  std::vector<std::vector<RtVal>> store(
      static_cast<std::size_t>(n),
      std::vector<RtVal>(priv.size()));

  auto saveTo = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < priv.size(); ++k)
      s[k] = f[static_cast<std::size_t>(priv[k])];
  };
  auto restoreFrom = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < priv.size(); ++k)
      f[static_cast<std::size_t>(priv[k])] = s[k];
  };

  // Execute barrier-delimited segments, thread by thread within a segment.
  std::size_t segStart = 0;
  while (segStart <= body.insts.size()) {
    std::size_t segEnd = segStart;
    while (segEnd < body.insts.size() &&
           body.insts[segEnd].op != Op::BarrierOp)
      ++segEnd;
    for (int t = 0; t < n; ++t) {
      ThreadState& ts = threads[static_cast<std::size_t>(t)];
      restoreFrom(t);
      f[static_cast<std::size_t>(tidArg)] = RtVal::I(t);
      rr.ts = &ts;
      for (std::size_t k = segStart; k < segEnd; ++k) {
        Flow fl = execInst(fn, body.insts[k], f, rr);
        PARAD_CHECK(fl == Flow::Normal, "return out of a fork body");
      }
      saveTo(t);
    }
    if (segEnd == body.insts.size()) break;
    // Barrier: align all thread clocks.
    double latest = 0;
    for (const ThreadState& ts : threads)
      latest = std::max(latest, ts.w.clock);
    latest += c.barrierBase + c.barrierPerThread * n;
    for (ThreadState& ts : threads) ts.w.clock = latest;
    segStart = segEnd + 1;
  }

  // Join.
  double latest = parent->w.clock;
  for (const ThreadState& ts : threads) {
    latest = std::max(latest, ts.w.clock);
    machine_.removeWorkers(ts.w.socket, 1);
  }
  machine_.addWorkers(parent->w.socket, 1);
  parent->w.clock = latest;
  parent->w.advance(c.joinBase + c.joinPerThread * n);
  rr.ts = parent;
  return Flow::Normal;
}

TreeWalker::Flow TreeWalker::execParallelFor(const ir::Function& fn,
                                               const ir::Inst& in, Frame& f,
                                               RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 lo = f[static_cast<std::size_t>(in.operands[0])].u.i;
  i64 hi = f[static_cast<std::size_t>(in.operands[1])].u.i;
  const ir::Region& body = in.regions[0];
  int ivArg = body.args[0];
  if (hi <= lo) return Flow::Normal;

  ThreadState* parent = rr.ts;
  // Nested parallelism executes serially on the current thread.
  int n = parent->nthreads > 1 ? 1 : env.threadsPerRank;
  if (n == 1) {
    for (i64 i = lo; i < hi; ++i) {
      f[static_cast<std::size_t>(ivArg)] = RtVal::I(i);
      parent->w.advance(c.loopIter);
      Flow fl = execRegion(fn, body, f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a parallel loop body");
    }
    return Flow::Normal;
  }

  parent->w.advance(c.forkBase + c.forkPerThread * n);
  double dil =
      std::max(1.0, static_cast<double>(n) * env.ranks /
                        machine_.config().totalCores()) *
      machine_.rankSlowdown(env.rank);
  machine_.removeWorkers(parent->w.socket, 1);

  i64 len = hi - lo;
  i64 chunk = (len + n - 1) / n;
  double latest = parent->w.clock;
  for (int t = 0; t < n; ++t) {
    i64 begin = lo + t * chunk;
    i64 end = std::min(hi, begin + chunk);
    ThreadState ts;
    ts.w.clock = parent->w.clock;
    ts.w.core = machine_.coreOfRankThread(env.rank, t);
    ts.w.socket = machine_.socketOfCore(ts.w.core);
    ts.w.dilation = dil;
    ts.tid = t;
    ts.nthreads = n;
    machine_.addWorkers(ts.w.socket, 1);
    rr.ts = &ts;
    for (i64 i = begin; i < end; ++i) {
      f[static_cast<std::size_t>(ivArg)] = RtVal::I(i);
      ts.w.advance(c.loopIter);
      Flow fl = execRegion(fn, body, f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a parallel loop body");
    }
    machine_.removeWorkers(ts.w.socket, 1);
    latest = std::max(latest, ts.w.clock);
  }
  machine_.addWorkers(parent->w.socket, 1);
  parent->w.clock = latest;
  parent->w.advance(c.joinBase + c.joinPerThread * n);
  rr.ts = parent;
  return Flow::Normal;
}

TreeWalker::Flow TreeWalker::execInst(const ir::Function& fn,
                                      const ir::Inst& in, Frame& f,
                                      RankRun& rr) {
  ++rr.insts;
  {
    // Kill probe first (so a scheduled crash beats a watchdog trip), gated
    // to the rank's root thread — see the matching probe in exec.cpp.
    if (rr.ts == rr.root) machine_.checkKill(rr.env->rank, rr.ts->w.clock);
    std::uint64_t wd = machine_.config().watchdogInsts;
    if (wd != 0 && rr.insts > wd)
      machine_.failWatchdog(rr.env->rank, rr.insts, rr.ts->w.clock);
    double tb = machine_.watchdogTimeBound();
    if (tb > 0 && rr.ts->w.clock > tb)
      machine_.failWatchdogTime(rr.env->rank, rr.ts->w.clock);
  }
  const psim::CostModel& c = machine_.config().cost;
  psim::MemoryManager& mem = machine_.mem();
  psim::WorkerCtx& w = rr.ts->w;
  auto V = [&](std::size_t i) -> RtVal& {
    return f[static_cast<std::size_t>(in.operands[i])];
  };
  auto setF = [&](double v) { f[static_cast<std::size_t>(in.result)].u.f = v; };
  auto setI = [&](i64 v) { f[static_cast<std::size_t>(in.result)].u.i = v; };
  auto setP = [&](RtPtr p) { f[static_cast<std::size_t>(in.result)].u.p = p; };
  // Operand i of an ops.def statement; a unary or binary op's missing ones
  // read as zero.
  auto operand = [&](std::size_t i) -> const RtVal& {
    return i < in.operands.size() ? V(i) : kNoOperand;
  };

  switch (in.op) {
    case Op::ConstF: setF(in.fconst); return Flow::Normal;
    case Op::ConstI: setI(in.iconst); return Flow::Normal;
    case Op::ConstB: setI(in.iconst); return Flow::Normal;

#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...)                  \
    case Op::Id: {                                                     \
      w.advance(ct_.cost);                                             \
      [[maybe_unused]] const RtVal& A = operand(0);                    \
      [[maybe_unused]] const RtVal& B = operand(1);                    \
      [[maybe_unused]] const RtVal& C = operand(2);                    \
      RtVal& R = f[static_cast<std::size_t>(in.result)];               \
      __VA_ARGS__;                                                     \
      return Flow::Normal;                                             \
    }
#include "src/ir/ops.def"

    case Op::Alloc: {
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8);
      RtPtr p = mem.alloc(static_cast<Type>(in.iconst), count, w.socket,
                          (in.flags & ir::kFlagCacheAlloc) != 0,
                          (in.flags & ir::kFlagShadowAlloc) != 0);
      setP(p);
      return Flow::Normal;
    }
    case Op::Free:
      w.advance(c.allocBase * 0.3);
      mem.free(V(0).u.p);
      return Flow::Normal;
    case Op::Load: {
      RtPtr p = V(0).u.p;
      psim::MemObject& o = mem.get(p);
      machine_.chargeMem(w, o.homeSocket, 8);
      i64 idx = V(1).u.i;
      switch (o.elem) {
        case Type::F64: setF(mem.atF(p, idx)); break;
        case Type::I64: setI(mem.atI(p, idx)); break;
        case Type::PtrF64: setP(mem.atP(p, idx)); break;
        default: PARAD_UNREACHABLE("bad load elem");
      }
      return Flow::Normal;
    }
    case Op::Store: {
      RtPtr p = V(0).u.p;
      psim::MemObject& o = mem.get(p);
      machine_.chargeMem(w, o.homeSocket, 8);
      i64 idx = V(1).u.i;
      switch (o.elem) {
        case Type::F64: mem.atF(p, idx) = V(2).u.f; break;
        case Type::I64: mem.atI(p, idx) = V(2).u.i; break;
        case Type::PtrF64: mem.atP(p, idx) = V(2).u.p; break;
        default: PARAD_UNREACHABLE("bad store elem");
      }
      return Flow::Normal;
    }
    case Op::AtomicAddF: {
      RtPtr p = V(0).u.p;
      psim::MemObject& o = mem.get(p);
      machine_.chargeAtomic(w, o, p.off + V(1).u.i);
      mem.atF(p, V(1).u.i) += V(2).u.f;
      return Flow::Normal;
    }
    case Op::Memset0: {
      RtPtr p = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(p);
      machine_.chargeMem(w, o.homeSocket, count * 8);
      for (i64 k = 0; k < count; ++k) {
        switch (o.elem) {
          case Type::F64: mem.atF(p, k) = 0; break;
          case Type::I64: mem.atI(p, k) = 0; break;
          case Type::PtrF64: mem.atP(p, k) = RtPtr{}; break;
          default: PARAD_UNREACHABLE("bad memset elem");
        }
      }
      return Flow::Normal;
    }

    case Op::Call: {
      const ir::Function& callee = mod_.get(in.sym);
      std::vector<RtVal> args;
      args.reserve(in.operands.size());
      for (std::size_t i = 0; i < in.operands.size(); ++i) args.push_back(V(i));
      RtVal out = callFunction(callee, std::move(args), rr);
      if (in.result >= 0) f[static_cast<std::size_t>(in.result)] = out;
      return Flow::Normal;
    }
    case Op::CallIndirect:
      fail("call.indirect reached the interpreter; run the "
           "resolve-indirect-calls pass first (jlite symbol table)");
    case Op::Return:
      if (!in.operands.empty()) rr.retVal = V(0);
      return Flow::Return;

    case Op::For: {
      i64 lo = V(0).u.i, hi = V(1).u.i;
      const ir::Region& body = in.regions[0];
      for (i64 i = lo; i < hi; ++i) {
        f[static_cast<std::size_t>(body.args[0])] = RtVal::I(i);
        w.advance(c.loopIter);
        if (execRegion(fn, body, f, rr) == Flow::Return) return Flow::Return;
      }
      return Flow::Normal;
    }
    case Op::While: {
      const ir::Region& body = in.regions[0];
      for (i64 iter = 0;; ++iter) {
        PARAD_CHECK(iter < (i64(1) << 32), "runaway while loop");
        f[static_cast<std::size_t>(body.args[0])] = RtVal::I(iter);
        w.advance(c.loopIter);
        rr.yield = false;
        if (execRegion(fn, body, f, rr) == Flow::Return) return Flow::Return;
        if (!rr.yield) break;
      }
      return Flow::Normal;
    }
    case Op::Yield:
      rr.yield = V(0).u.i != 0;
      return Flow::Normal;
    case Op::If: {
      w.advance(c.intOp);
      const ir::Region& r = V(0).u.i ? in.regions[0] : in.regions[1];
      return execRegion(fn, r, f, rr);
    }

    case Op::ParallelFor: return execParallelFor(fn, in, f, rr);
    case Op::Fork: return execFork(fn, in, f, rr);
    case Op::Workshare: {
      i64 lo = V(0).u.i, hi = V(1).u.i;
      const ir::Region& body = in.regions[0];
      int tid = rr.ts->tid, n = rr.ts->nthreads;
      w.advance(c.workshareInit);
      i64 len = hi - lo;
      if (len <= 0) return Flow::Normal;
      i64 chunk = (len + n - 1) / n;
      i64 begin = lo + tid * chunk;
      i64 end = std::min(hi, begin + chunk);
      bool reversed = in.iconst != 0;
      for (i64 k = begin; k < end; ++k) {
        i64 i = reversed ? end - 1 - (k - begin) : k;
        f[static_cast<std::size_t>(body.args[0])] = RtVal::I(i);
        w.advance(c.loopIter);
        Flow fl = execRegion(fn, body, f, rr);
        PARAD_CHECK(fl == Flow::Normal, "return out of a workshare body");
      }
      return Flow::Normal;
    }
    case Op::BarrierOp:
      // Handled structurally by execFork's segmentation.
      PARAD_UNREACHABLE("barrier outside fork segmentation");
    case Op::ThreadIdOp: setI(rr.ts->tid); return Flow::Normal;
    case Op::NumThreadsOp:
      // Inside a fork: the team size. Outside: the default team size (used
      // e.g. to size thread-indexed AD caches before entering the fork).
      setI(rr.ts->nthreads > 1 ? rr.ts->nthreads : rr.env->threadsPerRank);
      return Flow::Normal;

    case Op::Spawn: {
      // Eager (serial-elision) execution with list-scheduled virtual timing.
      w.advance(c.spawnCost);
      auto& free = rr.taskWorkerFree;
      std::size_t best = 0;
      for (std::size_t k = 1; k < free.size(); ++k)
        if (free[k] < free[best]) best = k;
      ThreadState ts;
      ts.w.clock = std::max(w.clock, free[best]);
      ts.w.core = machine_.coreOfRankThread(rr.env->rank,
                                            static_cast<int>(best));
      ts.w.socket = machine_.socketOfCore(ts.w.core);
      ts.w.dilation = w.dilation;
      ts.tid = static_cast<int>(best);
      ts.nthreads = static_cast<int>(free.size());
      ThreadState* parent = rr.ts;
      rr.ts = &ts;
      Flow fl = execRegion(fn, in.regions[0], f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a spawned task");
      rr.ts = parent;
      free[best] = ts.w.clock;
      rr.tasks.push_back(TaskRec{ts.w.clock});
      f[static_cast<std::size_t>(in.result)].u.task =
          static_cast<std::int32_t>(rr.tasks.size() - 1);
      return Flow::Normal;
    }
    case Op::SyncOp: {
      std::int32_t id = V(0).u.task;
      PARAD_CHECK(id >= 0 && static_cast<std::size_t>(id) < rr.tasks.size(),
                  "sync on invalid task");
      w.clock = std::max(w.clock, rr.tasks[static_cast<std::size_t>(id)].endTime);
      w.advance(c.syncCost);
      return Flow::Normal;
    }

    case Op::MpRank: setI(rr.env->rank); return Flow::Normal;
    case Op::MpSize: setI(rr.env->ranks); return Flow::Normal;
    case Op::MpIsend: {
      RtPtr p = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(p);
      PARAD_CHECK(o.elem == Type::F64 && p.off >= 0 &&
                      p.off + count <= o.count,
                  "isend buffer out of bounds");
      psim::ReqId id = machine_.fabric()->isend(
          rr.env->rank, w, o.f.data() + p.off, count,
          static_cast<int>(V(2).u.i), static_cast<int>(V(3).u.i));
      f[static_cast<std::size_t>(in.result)].u.req = id;
      return Flow::Normal;
    }
    case Op::MpIrecv: {
      RtPtr p = V(0).u.p;
      i64 count = V(1).u.i;
      psim::ReqId id = machine_.fabric()->irecv(
          rr.env->rank, w, p, count, static_cast<int>(V(2).u.i),
          static_cast<int>(V(3).u.i));
      f[static_cast<std::size_t>(in.result)].u.req = id;
      return Flow::Normal;
    }
    case Op::MpWaitOp:
      machine_.fabric()->wait(rr.env->rank, w, V(0).u.req);
      return Flow::Normal;
    case Op::MpSend: {
      RtPtr p = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(p);
      PARAD_CHECK(o.elem == Type::F64 && p.off >= 0 &&
                      p.off + count <= o.count,
                  "send buffer out of bounds");
      machine_.fabric()->send(rr.env->rank, w, o.f.data() + p.off, count,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      return Flow::Normal;
    }
    case Op::MpRecv:
      machine_.fabric()->recv(rr.env->rank, w, V(0).u.p, V(1).u.i,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      return Flow::Normal;
    case Op::MpAllreduce: {
      RtPtr sp = V(0).u.p;
      i64 count = V(2).u.i;
      psim::MemObject& so = mem.get(sp);
      PARAD_CHECK(so.elem == Type::F64 && sp.off >= 0 && count >= 0 &&
                      sp.off + count <= so.count,
                  "allreduce send buffer out of bounds");
      std::vector<i64> winners;
      machine_.fabric()->allreduce(
          rr.env->rank, w, static_cast<ir::ReduceKind>(in.iconst),
          so.f.data() + sp.off, V(1).u.p, count,
          in.operands.size() == 4 ? &winners : nullptr);
      if (in.operands.size() == 4) {
        RtPtr wp = V(3).u.p;
        for (i64 k = 0; k < count; ++k)
          mem.atI(wp, k) = winners[static_cast<std::size_t>(k)];
      }
      return Flow::Normal;
    }
    case Op::MpBarrier:
      machine_.fabric()->barrier(rr.env->rank, w);
      return Flow::Normal;

    case Op::OmpParallelFor:
      fail("omp.parallel.for reached the interpreter; run the lower-omp pass "
           "first");

    case Op::JlAllocArray: {
      // GC'd boxed array: a 1-slot descriptor object pointing at the data.
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8 + 8);
      w.advance(c.gcCost);
      RtPtr data = mem.alloc(Type::F64, count, w.socket);
      RtPtr desc = mem.alloc(Type::PtrF64, 1, w.socket);
      mem.atP(desc, 0) = data;
      setP(desc);
      return Flow::Normal;
    }
    case Op::GcPreserveBegin:
      w.advance(c.gcCost);
      setI(0);
      return Flow::Normal;
    case Op::GcPreserveEnd:
      w.advance(c.gcCost);
      return Flow::Normal;
  }
  PARAD_UNREACHABLE("unhandled opcode");
}

}  // namespace parad::interp
