#include "src/interp/exec.h"

#include <cmath>

namespace parad::interp {

using ir::Op;
using ir::Type;

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
  Runtime rt(machine_, env);
  Frame f(static_cast<std::size_t>(entry.numValues));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(entry.paramSlots[i])] = args[i];
  initConsts(entry, f);
  beginRun(rt);
  execBlock(entry, entry.entryBlock, f, rt);
  return rt.finish();
}

void Executor::execBody(const ExecProgram& p, std::int32_t blockId, Frame& f,
                        Runtime& rt, const char* what) {
  PARAD_CHECK(execBlock(p, blockId, f, rt) == Flow::Normal,
              "return out of a ", what);
}

RtVal Executor::callProgram(const ExecProgram& callee, const RtVal* args,
                            std::size_t nArgs, Runtime& rt) {
  RtVal callerRet = rt.enterCall();
  // Recycle frame storage across calls: assign() reuses capacity, so a hot
  // call site stops paying an allocation per invocation after warm-up.
  Frame f;
  if (!rt.framePool.empty()) {
    f = std::move(rt.framePool.back());
    rt.framePool.pop_back();
  }
  f.assign(static_cast<std::size_t>(callee.numValues), RtVal{});
  for (std::size_t i = 0; i < nArgs; ++i)
    f[static_cast<std::size_t>(callee.paramSlots[i])] = args[i];
  initConsts(callee, f);
  execBlock(callee, callee.entryBlock, f, rt);
  rt.framePool.push_back(std::move(f));
  return rt.leaveCall(callerRet);
}

void Executor::execFork(const ExecProgram& p, const ExecInst& in, Frame& f,
                        Runtime& rt) {
  int n = rt.teamSize(f[static_cast<std::size_t>(in.a[0])].u.i);
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
  const int tidArg = p.blocks[static_cast<std::size_t>(in.blockA)].arg;
  // The pre-split barrier segments, thread by thread per segment.
  rt.fork(n, in.segCount, [&](int si, int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < nPriv; ++k)
      f[static_cast<std::size_t>(priv[k])] = s[k];
    f[static_cast<std::size_t>(tidArg)] = RtVal::I(t);
    const ExecSegment& seg =
        p.segments[static_cast<std::size_t>(in.segBase + si)];
    PARAD_CHECK(execRange(p, seg.begin, seg.end, seg.trailingConsts, f, rt) ==
                    Flow::Normal,
                "return out of a fork body");
    for (std::size_t k = 0; k < nPriv; ++k)
      s[k] = f[static_cast<std::size_t>(priv[k])];
  });
}

Flow Executor::execRange(const ExecProgram& p, std::int32_t pc,
                         std::int32_t end, std::int32_t trailingConsts,
                         Frame& f, Runtime& rt) {
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

  // Both are stable for the duration of this range: every nested construct
  // restores rt.ts before returning, and frames never resize mid-execution.
  psim::WorkerCtx& w = rt.ts->w;
  RtVal* const F = f.data();
  const ExecInst* in = p.code.data() + pc;
  const ExecInst* const stop = p.code.data() + end;
  // Register-resident for the whole range: the worker clock (advanced with
  // WorkerCtx::advance's expression, clock += ns * dilation) and the dispatch
  // count. The clock is written back to w.clock before every handler that
  // calls out (and reloaded after it) and at range exit; the count is added
  // to rt.insts at range exit only. A hot op that throws skips both: nothing
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
    rt.insts += nd;      \
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
    PARAD_CHARGE(rt.ct.cost);                                            \
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

first_Load:
  PARAD_CHARGE(rt.load(PARAD_SLOT(0, in->a).u.p, PARAD_SLOT(1, in->a).u.i,
                       F[static_cast<std::size_t>(in->result)]));
  PARAD_DISPATCH();
first_Store:
  PARAD_CHARGE(rt.store(PARAD_SLOT(0, in->a).u.p, PARAD_SLOT(1, in->a).u.i,
                        PARAD_SLOT(2, in->a)));
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
  RtVal out = callProgram(callee, argPtr, in->nOps, rt);
  clk = w.clock;
  if (in->result >= 0) F[static_cast<std::size_t>(in->result)] = out;
}
  PARAD_DISPATCH();
first_CallIndirect:
first_OmpParallelFor:
  w.clock = clk;
  fail(xm_.trapMsgs[static_cast<std::size_t>(in->trap)]);
first_Return:
  if (in->nOps > 0) rt.retVal = PARAD_SLOT(0, in->a);
  w.clock = clk;
  PARAD_RETURN();

first_For: {
  i64 lo = PARAD_SLOT(0, in->a).u.i, hi = PARAD_SLOT(1, in->a).u.i;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in->blockA)];
  w.clock = clk;
  for (i64 i = lo; i < hi; ++i) {
    F[static_cast<std::size_t>(body.arg)] = RtVal::I(i);
    w.advance(rt.ct.loopIter);
    if (execRange(p, body.begin, body.end, body.trailingConsts, f, rt) ==
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
    w.advance(rt.ct.loopIter);
    rt.yield = false;
    if (execRange(p, body.begin, body.end, body.trailingConsts, f, rt) ==
        Flow::Return)
      PARAD_RETURN();
    if (!rt.yield) break;
  }
  clk = w.clock;
}
  PARAD_DISPATCH();
first_Yield:
  rt.yield = PARAD_SLOT(0, in->a).u.i != 0;
  PARAD_DISPATCH();
first_If: {
  PARAD_CHARGE(rt.ct.intOp);
  w.clock = clk;
  if (execBlock(p, PARAD_SLOT(0, in->a).u.i ? in->blockA : in->blockB, f,
                rt) == Flow::Return)
    PARAD_RETURN();
  clk = w.clock;
}
  PARAD_DISPATCH();

first_Workshare:
  // Out of line like the machine-state ops: the team's body lambda would
  // otherwise pin this loop's locals to memory.
  w.clock = clk;
  execComplexInst(p, *in, f, rt);
  clk = w.clock;
  PARAD_DISPATCH();
first_BarrierOp:
  // Handled structurally by the fork's precompiled segmentation.
  PARAD_UNREACHABLE("barrier outside fork segmentation");
first_ThreadIdOp:
  F[static_cast<std::size_t>(in->result)].u.i = rt.ts->tid;
  PARAD_DISPATCH();
first_NumThreadsOp:
  F[static_cast<std::size_t>(in->result)].u.i = rt.numThreadsDefault();
  PARAD_DISPATCH();
first_MpRank:
  F[static_cast<std::size_t>(in->result)].u.i = rt.env.rank;
  PARAD_DISPATCH();
first_MpSize:
  F[static_cast<std::size_t>(in->result)].u.i = rt.env.ranks;
  PARAD_DISPATCH();

  // Machine-state instructions: decoded by execComplexInst, which the
  // codegen backend's complex-op callback also calls (see exec.h).
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
  execComplexInst(p, *in, f, rt);
  clk = w.clock;
}
  PARAD_DISPATCH();

first_GcPreserveBegin:
  PARAD_CHARGE(rt.gcPreserve());
  F[static_cast<std::size_t>(in->result)].u.i = 0;
  PARAD_DISPATCH();
first_GcPreserveEnd:
  PARAD_CHARGE(rt.gcPreserve());
  PARAD_DISPATCH();

range_end:
  w.clock = clk;
  rt.insts += nd + static_cast<std::uint64_t>(trailingConsts);
  // Every loop iteration funnels through a range exit, so probing here
  // bounds runaway (live-locked) rank programs without a per-instruction
  // branch.
  rt.probe();
  return Flow::Normal;
}

#undef PARAD_SLOT
#undef PARAD_CHARGE
#undef PARAD_DISPATCH
#undef PARAD_RETURN

void Executor::execComplexInst(const ExecProgram& p, const ExecInst& in,
                               Frame& f, Runtime& rt) {
  RtVal* const F = f.data();
  const std::int32_t* ops =
      in.poolBase >= 0 ? p.pool.data() + in.poolBase : in.a.data();
  auto V = [&](std::size_t i) -> RtVal& {
    return F[static_cast<std::size_t>(ops[i])];
  };
  auto R = [&]() -> RtVal& { return F[static_cast<std::size_t>(in.result)]; };

  switch (in.op) {
    case Op::Alloc:
      R().u.p = rt.alloc(static_cast<Type>(in.iconst), V(0).u.i, in.flags);
      break;
    case Op::Free: rt.free(V(0).u.p); break;
    case Op::AtomicAddF: rt.atomicAdd(V(0).u.p, V(1).u.i, V(2).u.f); break;
    case Op::Memset0: rt.memset0(V(0).u.p, V(1).u.i); break;
    case Op::JlAllocArray: R().u.p = rt.allocBoxedArray(V(0).u.i); break;

    case Op::Spawn:
      R().u.task =
          rt.spawn([&] { execBody(p, in.blockA, f, rt, "spawned task"); });
      break;
    case Op::SyncOp: rt.sync(V(0).u.task); break;

    case Op::MpIsend:
      R().u.req = rt.isend(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      break;
    case Op::MpIrecv:
      R().u.req = rt.irecv(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      break;
    case Op::MpWaitOp: rt.wait(V(0).u.req); break;
    case Op::MpSend: rt.send(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i); break;
    case Op::MpRecv: rt.recv(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i); break;
    case Op::MpAllreduce:
      rt.allreduce(V(0).u.p, V(1).u.p, V(2).u.i,
                   static_cast<ir::ReduceKind>(in.iconst),
                   in.nOps == 4 ? &V(3).u.p : nullptr);
      break;
    case Op::MpBarrier: rt.barrier(); break;

    case Op::ParallelFor: {
      const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
      rt.parallelFor(V(0).u.i, V(1).u.i, [&](i64 i) {
        F[static_cast<std::size_t>(body.arg)] = RtVal::I(i);
        execBody(p, in.blockA, f, rt, "parallel loop body");
      });
      break;
    }
    case Op::Fork: execFork(p, in, f, rt); break;
    case Op::Workshare: {
      const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
      rt.workshare(V(0).u.i, V(1).u.i, in.iconst != 0, [&](i64 i) {
        F[static_cast<std::size_t>(body.arg)] = RtVal::I(i);
        execBody(p, in.blockA, f, rt, "workshare body");
      });
      break;
    }

    default:
      PARAD_UNREACHABLE("non-complex op in execComplexInst");
  }
}

}  // namespace parad::interp
