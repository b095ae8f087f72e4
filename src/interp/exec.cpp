#include "src/interp/exec.h"

#include <algorithm>
#include <cmath>

namespace parad::interp {

using ir::Op;
using ir::Type;
using psim::RtPtr;

// Writes the program's folded constants into their frame slots (lower.h:
// constant instructions never reach the dispatch loop).
static void initConsts(const ExecProgram& p, std::vector<RtVal>& f) {
  for (const ConstInit& ci : p.constInits) {
    RtVal& v = f[static_cast<std::size_t>(ci.slot)];
    if (ci.isF)
      v.u.f = ci.f;
    else
      v.u.i = ci.i;
  }
}

RtVal Executor::run(std::vector<RtVal> args, psim::RankEnv& env) {
  const ExecProgram& entry = xm_.programs[0];
  PARAD_CHECK(args.size() == entry.numParams,
              "wrong argument count calling @", entry.name);
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

  Frame f(static_cast<std::size_t>(entry.numValues));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(entry.paramSlots[i])] = args[i];
  initConsts(entry, f);
  beginRun(rr);
  execBlock(entry, entry.entryBlock, f, rr);
  env.main = main.w;
  machine_.stats().instsExecuted += rr.insts;
  return rr.retVal;
}

RtVal Executor::callProgram(const ExecProgram& callee, const RtVal* args,
                            std::size_t nArgs, RankRun& rr) {
  PARAD_CHECK(++rr.callDepth < machine_.config().maxCallDepth,
              "call depth limit exceeded (recursion?)");
  rr.ts->w.advance(ct_.callCost);
  // Recycle frame storage across calls: assign() reuses capacity, so a hot
  // call site stops paying an allocation per invocation after warm-up.
  Frame f;
  if (!rr.framePool.empty()) {
    f = std::move(rr.framePool.back());
    rr.framePool.pop_back();
  }
  f.assign(static_cast<std::size_t>(callee.numValues), RtVal{});
  for (std::size_t i = 0; i < nArgs; ++i)
    f[static_cast<std::size_t>(callee.paramSlots[i])] = args[i];
  initConsts(callee, f);
  RtVal savedRet = rr.retVal;
  rr.retVal = RtVal{};
  execBlock(callee, callee.entryBlock, f, rr);
  RtVal out = rr.retVal;
  rr.retVal = savedRet;
  --rr.callDepth;
  rr.framePool.push_back(std::move(f));
  return out;
}

Executor::Flow Executor::execFork(const ExecProgram& p, const ExecInst& in,
                                  Frame& f, RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 nReq = f[static_cast<std::size_t>(in.a[0])].u.i;
  int n = nReq > 0 ? static_cast<int>(nReq) : env.threadsPerRank;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
  int tidArg = body.arg;

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
  // must survive across barrier-delimited segments per thread). The value
  // set was precomputed at lowering time into the program's pool.
  const std::int32_t* priv = p.pool.data() + in.privBase;
  std::size_t nPriv = static_cast<std::size_t>(in.privCount);
  std::vector<std::vector<RtVal>> store(static_cast<std::size_t>(n),
                                        std::vector<RtVal>(nPriv));
  // Privatized slots that hold folded constants start with the constant value
  // (the tree-walker re-executes the constant inside each thread's segment;
  // here it must already be present when the segment's frame is restored).
  const std::int32_t* fix = p.pool.data() + in.privFixBase;
  for (std::int32_t j = 0; j < in.privFixCount; ++j) {
    std::size_t k = static_cast<std::size_t>(fix[2 * j]);
    const ConstInit& ci =
        p.constInits[static_cast<std::size_t>(fix[2 * j + 1])];
    for (int t = 0; t < n; ++t) {
      RtVal& v = store[static_cast<std::size_t>(t)][k];
      if (ci.isF)
        v.u.f = ci.f;
      else
        v.u.i = ci.i;
    }
  }

  auto saveTo = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < nPriv; ++k)
      s[k] = f[static_cast<std::size_t>(priv[k])];
  };
  auto restoreFrom = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < nPriv; ++k)
      f[static_cast<std::size_t>(priv[k])] = s[k];
  };

  // Execute the pre-split barrier segments, thread by thread per segment.
  for (std::int32_t si = 0; si < in.segCount; ++si) {
    const ExecSegment& seg =
        p.segments[static_cast<std::size_t>(in.segBase + si)];
    for (int t = 0; t < n; ++t) {
      ThreadState& ts = threads[static_cast<std::size_t>(t)];
      restoreFrom(t);
      f[static_cast<std::size_t>(tidArg)] = RtVal::I(t);
      rr.ts = &ts;
      Flow fl = execRange(p, seg.begin, seg.end, seg.trailingConsts, f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a fork body");
      saveTo(t);
    }
    if (si + 1 == in.segCount) break;
    // Barrier: align all thread clocks.
    double latest = 0;
    for (const ThreadState& ts : threads)
      latest = std::max(latest, ts.w.clock);
    latest += c.barrierBase + c.barrierPerThread * n;
    for (ThreadState& ts : threads) ts.w.clock = latest;
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

Executor::Flow Executor::execParallelFor(const ExecProgram& p,
                                         const ExecInst& in, Frame& f,
                                         RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 lo = f[static_cast<std::size_t>(in.a[0])].u.i;
  i64 hi = f[static_cast<std::size_t>(in.a[1])].u.i;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
  int ivArg = body.arg;
  if (hi <= lo) return Flow::Normal;

  ThreadState* parent = rr.ts;
  // Nested parallelism executes serially on the current thread.
  int n = parent->nthreads > 1 ? 1 : env.threadsPerRank;
  if (n == 1) {
    for (i64 i = lo; i < hi; ++i) {
      f[static_cast<std::size_t>(ivArg)] = RtVal::I(i);
      parent->w.advance(ct_.loopIter);
      Flow fl = execRange(p, body.begin, body.end, body.trailingConsts, f, rr);
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
      ts.w.advance(ct_.loopIter);
      Flow fl = execRange(p, body.begin, body.end, body.trailingConsts, f, rr);
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

Executor::Flow Executor::execRange(const ExecProgram& p, std::int32_t pc,
                                   std::int32_t end,
                                   std::int32_t trailingConsts, Frame& f,
                                   RankRun& rr) {
  // Direct-threaded dispatch (DESIGN.md §9): every handler ends in its own
  // indirect jump to the next instruction's handler. kFirst serves an
  // instruction's op, kSecond the arithmetic op fused into its second slot.
  // Both are expanded from ops.def, so they index exactly like ir::Op.
  static const void* const kFirst[] = {
#define PARAD_OP(Id, ...) &&first_##Id,
#include "src/ir/ops.def"
  };
  static const void* const kSecond[] = {
#define PARAD_OP(Id, ...) &&second_not_fusable,
#define PARAD_ARITH(Id, ...) &&second_##Id,
#include "src/ir/ops.def"
  };

  psim::MemoryManager& mem = machine_.mem();
  // Both are stable for the duration of this range: every nested construct
  // restores rr.ts before returning, and frames never resize mid-execution.
  psim::WorkerCtx& w = rr.ts->w;
  RtVal* const F = f.data();
  const ExecInst* in = p.code.data() + pc;
  const ExecInst* const stop = p.code.data() + end;
  // Register-resident for the whole range: the worker clock (advanced with
  // WorkerCtx::advance's expression, clock += ns * dilation) and the dispatch
  // count. The clock is written back to w.clock before every handler that
  // calls out (and reloaded after it) and at range exit; the count is added
  // to rr.insts at range exit only. A hot op that throws skips both: nothing
  // reads a failing rank's clock or count.
  const double dil = w.dilation;
  double clk = w.clock;
  std::uint64_t nd = 0;

// Operand slot i of an operand array. Every op with at most kInlineOps
// operands keeps them inline, so only the Call handler reads the spill pool.
#define PARAD_SLOT(i, a) F[static_cast<std::size_t>((a)[i])]
#define PARAD_CHARGE(ns) clk += (ns) * dil
#define PARAD_DISPATCH()                                         \
  do {                                                           \
    if (++in == stop) goto range_end;                            \
    nd += 1 + static_cast<std::uint64_t>(in->constsBefore);      \
    goto* kFirst[static_cast<int>(in->op)];                      \
  } while (0)
// Leaves the range with Flow::Return; w.clock must already be current.
#define PARAD_RETURN()   \
  do {                   \
    rr.insts += nd;      \
    return Flow::Return; \
  } while (0)

  if (in == stop) goto range_end;
  nd += 1 + static_cast<std::uint64_t>(in->constsBefore);
  goto* kFirst[static_cast<int>(in->op)];

  // Arithmetic: one handler per ops.def row per slot, each charging the
  // row's cost field and running its statement over operand slots A, B, C
  // (unused slots index 0) and result slot R. A first-slot handler
  // continues into the fused op, if any, before dispatching the next
  // instruction.
#define PARAD_ARITH_HANDLER(label, ops, res, cost, ...)                  \
  label : {                                                              \
    PARAD_CHARGE(ct_.cost);                                              \
    [[maybe_unused]] const RtVal& A = PARAD_SLOT(0, ops);                \
    [[maybe_unused]] const RtVal& B = PARAD_SLOT(1, ops);                \
    [[maybe_unused]] const RtVal& C = PARAD_SLOT(2, ops);                \
    RtVal& R = F[static_cast<std::size_t>(res)];                         \
    __VA_ARGS__;                                                         \
  }
#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...)                    \
  PARAD_ARITH_HANDLER(first_##Id, in->a, in->result, cost, __VA_ARGS__)  \
  if (in->op2 >= 0) {                                                    \
    nd += 1 + static_cast<std::uint64_t>(in->consts2);                   \
    goto* kSecond[in->op2];                                              \
  }                                                                      \
  PARAD_DISPATCH();
#include "src/ir/ops.def"
#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...)                    \
  PARAD_ARITH_HANDLER(second_##Id, in->a2, in->result2, cost, __VA_ARGS__) \
  PARAD_DISPATCH();
#include "src/ir/ops.def"
#undef PARAD_ARITH_HANDLER

second_not_fusable:
  PARAD_UNREACHABLE("non-arithmetic op in fused slot");

first_ConstF:
  F[static_cast<std::size_t>(in->result)].u.f = in->fconst;
  PARAD_DISPATCH();
first_ConstI:
first_ConstB:
  F[static_cast<std::size_t>(in->result)].u.i = in->iconst;
  PARAD_DISPATCH();

first_Load: {
  // Single object lookup: the at*() accessors would re-run get() and the
  // element-type check the switch below already establishes.
  RtPtr ptr = PARAD_SLOT(0, in->a).u.p;
  psim::MemObject& o = mem.get(ptr);
  PARAD_CHARGE(machine_.memCharge8(w, o.homeSocket));
  i64 k = ptr.off + PARAD_SLOT(1, in->a).u.i;
  PARAD_CHECK(k >= 0 && k < o.count, "access out of bounds: index ", k,
              " of ", o.count);
  RtVal& r = F[static_cast<std::size_t>(in->result)];
  switch (o.elem) {
    case Type::F64: r.u.f = o.f[static_cast<std::size_t>(k)]; break;
    case Type::I64: r.u.i = o.i[static_cast<std::size_t>(k)]; break;
    case Type::PtrF64: r.u.p = o.p[static_cast<std::size_t>(k)]; break;
    default: PARAD_UNREACHABLE("bad load elem");
  }
}
  PARAD_DISPATCH();
first_Store: {
  RtPtr ptr = PARAD_SLOT(0, in->a).u.p;
  psim::MemObject& o = mem.get(ptr);
  PARAD_CHARGE(machine_.memCharge8(w, o.homeSocket));
  i64 k = ptr.off + PARAD_SLOT(1, in->a).u.i;
  PARAD_CHECK(k >= 0 && k < o.count, "access out of bounds: index ", k,
              " of ", o.count);
  const RtVal& v = PARAD_SLOT(2, in->a);
  switch (o.elem) {
    case Type::F64: o.f[static_cast<std::size_t>(k)] = v.u.f; break;
    case Type::I64: o.i[static_cast<std::size_t>(k)] = v.u.i; break;
    case Type::PtrF64: o.p[static_cast<std::size_t>(k)] = v.u.p; break;
    default: PARAD_UNREACHABLE("bad store elem");
  }
}
  PARAD_DISPATCH();

first_Call: {
  // Written back before the arguments are gathered, not just before the
  // call: with the write-back after the argument vector's allocation, GCC 12
  // kept the clock in a stack slot in every handler.
  w.clock = clk;
  if (in->trap >= 0) fail(xm_.trapMsgs[static_cast<std::size_t>(in->trap)]);
  const ExecProgram& callee =
      xm_.programs[static_cast<std::size_t>(in->callee)];
  const std::int32_t* ops =
      in->poolBase >= 0 ? p.pool.data() + in->poolBase : in->a.data();
  RtVal argBuf[ExecInst::kInlineOps];
  const RtVal* argPtr;
  std::vector<RtVal> argVec;
  if (in->nOps <= ExecInst::kInlineOps) {
    for (std::size_t i = 0; i < in->nOps; ++i) argBuf[i] = PARAD_SLOT(i, ops);
    argPtr = argBuf;
  } else {
    argVec.reserve(in->nOps);
    for (std::size_t i = 0; i < in->nOps; ++i)
      argVec.push_back(PARAD_SLOT(i, ops));
    argPtr = argVec.data();
  }
  RtVal out = callProgram(callee, argPtr, in->nOps, rr);
  clk = w.clock;
  if (in->result >= 0) F[static_cast<std::size_t>(in->result)] = out;
}
  PARAD_DISPATCH();
first_CallIndirect:
first_OmpParallelFor:
  w.clock = clk;
  fail(xm_.trapMsgs[static_cast<std::size_t>(in->trap)]);
first_Return:
  if (in->nOps > 0) rr.retVal = PARAD_SLOT(0, in->a);
  w.clock = clk;
  PARAD_RETURN();

first_For: {
  i64 lo = PARAD_SLOT(0, in->a).u.i, hi = PARAD_SLOT(1, in->a).u.i;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in->blockA)];
  w.clock = clk;
  for (i64 i = lo; i < hi; ++i) {
    F[static_cast<std::size_t>(body.arg)] = RtVal::I(i);
    w.advance(ct_.loopIter);
    if (execRange(p, body.begin, body.end, body.trailingConsts, f, rr) ==
        Flow::Return)
      PARAD_RETURN();
  }
  clk = w.clock;
}
  PARAD_DISPATCH();
first_While: {
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in->blockA)];
  w.clock = clk;
  for (i64 iter = 0;; ++iter) {
    PARAD_CHECK(iter < (i64(1) << 32), "runaway while loop");
    F[static_cast<std::size_t>(body.arg)] = RtVal::I(iter);
    w.advance(ct_.loopIter);
    rr.yield = false;
    if (execRange(p, body.begin, body.end, body.trailingConsts, f, rr) ==
        Flow::Return)
      PARAD_RETURN();
    if (!rr.yield) break;
  }
  clk = w.clock;
}
  PARAD_DISPATCH();
first_Yield:
  rr.yield = PARAD_SLOT(0, in->a).u.i != 0;
  PARAD_DISPATCH();
first_If: {
  PARAD_CHARGE(ct_.intOp);
  w.clock = clk;
  if (execBlock(p, PARAD_SLOT(0, in->a).u.i ? in->blockA : in->blockB, f,
                rr) == Flow::Return)
    PARAD_RETURN();
  clk = w.clock;
}
  PARAD_DISPATCH();

first_Workshare: {
  i64 lo = PARAD_SLOT(0, in->a).u.i, hi = PARAD_SLOT(1, in->a).u.i;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in->blockA)];
  int tid = rr.ts->tid, n = rr.ts->nthreads;
  PARAD_CHARGE(ct_.workshareInit);
  i64 len = hi - lo;
  if (len > 0) {
    i64 chunk = (len + n - 1) / n;
    i64 begin = lo + tid * chunk;
    i64 wsEnd = std::min(hi, begin + chunk);
    bool reversed = in->iconst != 0;
    w.clock = clk;
    for (i64 k = begin; k < wsEnd; ++k) {
      i64 i = reversed ? wsEnd - 1 - (k - begin) : k;
      F[static_cast<std::size_t>(body.arg)] = RtVal::I(i);
      w.advance(ct_.loopIter);
      Flow fl =
          execRange(p, body.begin, body.end, body.trailingConsts, f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a workshare body");
    }
    clk = w.clock;
  }
}
  PARAD_DISPATCH();
first_BarrierOp:
  // Handled structurally by the fork's precompiled segmentation.
  PARAD_UNREACHABLE("barrier outside fork segmentation");
first_ThreadIdOp:
  F[static_cast<std::size_t>(in->result)].u.i = rr.ts->tid;
  PARAD_DISPATCH();
first_NumThreadsOp:
  // Inside a fork: the team size. Outside: the default team size (used e.g.
  // to size thread-indexed AD caches before entering the fork).
  F[static_cast<std::size_t>(in->result)].u.i =
      rr.ts->nthreads > 1 ? rr.ts->nthreads : rr.env->threadsPerRank;
  PARAD_DISPATCH();
first_MpRank:
  F[static_cast<std::size_t>(in->result)].u.i = rr.env->rank;
  PARAD_DISPATCH();
first_MpSize:
  F[static_cast<std::size_t>(in->result)].u.i = rr.env->ranks;
  PARAD_DISPATCH();

  // Machine-state instructions: one implementation shared with the codegen
  // backend's complex-op callback (see exec.h).
first_Alloc:
first_Free:
first_AtomicAddF:
first_Memset0:
first_Spawn:
first_SyncOp:
first_MpIsend:
first_MpIrecv:
first_MpWaitOp:
first_MpSend:
first_MpRecv:
first_MpAllreduce:
first_MpBarrier:
first_JlAllocArray:
first_ParallelFor:
first_Fork: {
  w.clock = clk;
  if (execComplexInst(p, *in, f, rr) == Flow::Return) PARAD_RETURN();
  clk = w.clock;
}
  PARAD_DISPATCH();

first_GcPreserveBegin:
  PARAD_CHARGE(ct_.gcCost);
  F[static_cast<std::size_t>(in->result)].u.i = 0;
  PARAD_DISPATCH();
first_GcPreserveEnd:
  PARAD_CHARGE(ct_.gcCost);
  PARAD_DISPATCH();

range_end:
  w.clock = clk;
  rr.insts += nd + static_cast<std::uint64_t>(trailingConsts);
  // Kill probe, gated to the rank's root thread: fork paths adjust worker
  // counts non-RAII, so unwinding a crash from inside a parallel region
  // would leak them; the root thread is always at a safe unwind point.
  // Probed before the watchdog so a scheduled crash beats a watchdog trip.
  if (rr.ts == rr.root) machine_.checkKill(rr.env->rank, w.clock);
  // Progress watchdog: every loop iteration funnels through a range exit, so
  // checking at the flush bounds runaway (live-locked) rank programs without
  // a per-instruction branch. The time bound comes from the machine (config
  // plus checkpoint-recovery slack), not the raw config.
  {
    std::uint64_t wd = machine_.config().watchdogInsts;
    if (wd != 0 && rr.insts > wd)
      machine_.failWatchdog(rr.env->rank, rr.insts, w.clock);
    double tb = machine_.watchdogTimeBound();
    if (tb > 0 && w.clock > tb)
      machine_.failWatchdogTime(rr.env->rank, w.clock);
  }
  return Flow::Normal;
}

#undef PARAD_SLOT
#undef PARAD_CHARGE
#undef PARAD_DISPATCH
#undef PARAD_RETURN

Executor::Flow Executor::execComplexInst(const ExecProgram& p,
                                         const ExecInst& in, Frame& f,
                                         RankRun& rr) {
  psim::MemoryManager& mem = machine_.mem();
  psim::WorkerCtx& w = rr.ts->w;
  RtVal* const F = f.data();
  const std::int32_t* ops =
      in.poolBase >= 0 ? p.pool.data() + in.poolBase : in.a.data();
  auto V = [&](std::size_t i) -> RtVal& {
    return F[static_cast<std::size_t>(ops[i])];
  };
  auto setP = [&](RtPtr ptr) {
    F[static_cast<std::size_t>(in.result)].u.p = ptr;
  };

  switch (in.op) {
    case Op::Alloc: {
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8);
      RtPtr ptr = mem.alloc(static_cast<Type>(in.iconst), count, w.socket,
                            (in.flags & ir::kFlagCacheAlloc) != 0,
                            (in.flags & ir::kFlagShadowAlloc) != 0);
      setP(ptr);
      break;
    }
    case Op::Free:
      w.advance(ct_.freeCost);
      mem.free(V(0).u.p);
      break;
    case Op::AtomicAddF: {
      RtPtr ptr = V(0).u.p;
      psim::MemObject& o = mem.get(ptr);
      i64 k = ptr.off + V(1).u.i;
      machine_.chargeAtomic(w, o, k);
      PARAD_CHECK(o.elem == Type::F64 && k >= 0 && k < o.count,
                  "access out of bounds: index ", k, " of ", o.count);
      o.f[static_cast<std::size_t>(k)] += V(2).u.f;
      break;
    }
    case Op::Memset0: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      machine_.chargeMem(w, o.homeSocket, count * 8);
      if (count > 0) {
        PARAD_CHECK(ptr.off >= 0 && ptr.off + count <= o.count,
                    "access out of bounds: index ", ptr.off + count - 1,
                    " of ", o.count);
        std::size_t b = static_cast<std::size_t>(ptr.off);
        std::size_t e = b + static_cast<std::size_t>(count);
        switch (o.elem) {
          case Type::F64:
            std::fill(o.f.begin() + b, o.f.begin() + e, 0.0);
            break;
          case Type::I64:
            std::fill(o.i.begin() + b, o.i.begin() + e, i64{0});
            break;
          case Type::PtrF64:
            std::fill(o.p.begin() + b, o.p.begin() + e, RtPtr{});
            break;
          default: PARAD_UNREACHABLE("bad memset elem");
        }
      }
      break;
    }

    case Op::Spawn: {
      // Eager (serial-elision) execution with list-scheduled virtual timing.
      w.advance(ct_.spawnCost);
      auto& free = rr.taskWorkerFree;
      std::size_t best = 0;
      for (std::size_t k = 1; k < free.size(); ++k)
        if (free[k] < free[best]) best = k;
      ThreadState ts;
      ts.w.clock = std::max(w.clock, free[best]);
      ts.w.core =
          machine_.coreOfRankThread(rr.env->rank, static_cast<int>(best));
      ts.w.socket = machine_.socketOfCore(ts.w.core);
      ts.w.dilation = w.dilation;
      ts.tid = static_cast<int>(best);
      ts.nthreads = static_cast<int>(free.size());
      ThreadState* parent = rr.ts;
      rr.ts = &ts;
      Flow fl = execBlock(p, in.blockA, f, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a spawned task");
      rr.ts = parent;
      free[best] = ts.w.clock;
      rr.tasks.push_back(TaskRec{ts.w.clock});
      F[static_cast<std::size_t>(in.result)].u.task =
          static_cast<std::int32_t>(rr.tasks.size() - 1);
      break;
    }
    case Op::SyncOp: {
      std::int32_t id = V(0).u.task;
      PARAD_CHECK(id >= 0 && static_cast<std::size_t>(id) < rr.tasks.size(),
                  "sync on invalid task");
      w.clock =
          std::max(w.clock, rr.tasks[static_cast<std::size_t>(id)].endTime);
      w.advance(ct_.syncCost);
      break;
    }

    case Op::MpIsend: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      PARAD_CHECK(o.elem == Type::F64 && ptr.off >= 0 &&
                      ptr.off + count <= o.count,
                  "isend buffer out of bounds");
      psim::ReqId id = machine_.fabric()->isend(
          rr.env->rank, w, o.f.data() + ptr.off, count,
          static_cast<int>(V(2).u.i), static_cast<int>(V(3).u.i));
      F[static_cast<std::size_t>(in.result)].u.req = id;
      break;
    }
    case Op::MpIrecv: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::ReqId id = machine_.fabric()->irecv(
          rr.env->rank, w, ptr, count, static_cast<int>(V(2).u.i),
          static_cast<int>(V(3).u.i));
      F[static_cast<std::size_t>(in.result)].u.req = id;
      break;
    }
    case Op::MpWaitOp:
      machine_.fabric()->wait(rr.env->rank, w, V(0).u.req);
      break;
    case Op::MpSend: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      PARAD_CHECK(o.elem == Type::F64 && ptr.off >= 0 &&
                      ptr.off + count <= o.count,
                  "send buffer out of bounds");
      machine_.fabric()->send(rr.env->rank, w, o.f.data() + ptr.off, count,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      break;
    }
    case Op::MpRecv:
      machine_.fabric()->recv(rr.env->rank, w, V(0).u.p, V(1).u.i,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      break;
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
          in.nOps == 4 ? &winners : nullptr);
      if (in.nOps == 4) {
        RtPtr wp = V(3).u.p;
        for (i64 k = 0; k < count; ++k)
          mem.atI(wp, k) = winners[static_cast<std::size_t>(k)];
      }
      break;
    }
    case Op::MpBarrier:
      machine_.fabric()->barrier(rr.env->rank, w);
      break;

    case Op::JlAllocArray: {
      // GC'd boxed array: a 1-slot descriptor object pointing at the data.
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8 + 8);
      w.advance(ct_.gcCost);
      RtPtr data = mem.alloc(Type::F64, count, w.socket);
      RtPtr desc = mem.alloc(Type::PtrF64, 1, w.socket);
      mem.atP(desc, 0) = data;
      setP(desc);
      break;
    }

    case Op::ParallelFor:
      return execParallelFor(p, in, f, rr);
    case Op::Fork:
      return execFork(p, in, f, rr);

    default:
      PARAD_UNREACHABLE("non-complex op in execComplexInst");
  }
  return Flow::Normal;
}

}  // namespace parad::interp
