#include "src/interp/treewalk.h"

#include <cmath>

#include "src/ir/printer.h"

namespace parad::interp {

using ir::Op;
using ir::Type;

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
  Runtime rt(machine_, env);
  Frame f(static_cast<std::size_t>(fn.numValues()));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(fn.body.args[i])] = args[i];
  execRegion(fn, fn.body, f, rt);
  return rt.finish();
}

Flow TreeWalker::execRegion(const ir::Function& fn, const ir::Region& r,
                            Frame& f, Runtime& rt) {
  for (const ir::Inst& in : r.insts)
    if (execInst(fn, in, f, rt) == Flow::Return) return Flow::Return;
  return Flow::Normal;
}

void TreeWalker::execBody(const ir::Function& fn, const ir::Region& r,
                          Frame& f, Runtime& rt, const char* what) {
  PARAD_CHECK(execRegion(fn, r, f, rt) == Flow::Normal, "return out of a ",
              what);
}

// The runtime's lambda-taking team and task templates are expanded here,
// out of line, so execInst's frame stays small.
void TreeWalker::execLoop(const ir::Function& fn, const ir::Inst& in,
                          Frame& f, Runtime& rt) {
  const ir::Region& body = in.regions[0];
  i64 lo = f[static_cast<std::size_t>(in.operands[0])].u.i;
  i64 hi = f[static_cast<std::size_t>(in.operands[1])].u.i;
  auto iter = [&](i64 i, const char* what) {
    f[static_cast<std::size_t>(body.args[0])] = RtVal::I(i);
    execBody(fn, body, f, rt, what);
  };
  if (in.op == Op::ParallelFor)
    rt.parallelFor(lo, hi, [&](i64 i) { iter(i, "parallel loop body"); });
  else
    rt.workshare(lo, hi, in.iconst != 0,
                 [&](i64 i) { iter(i, "workshare body"); });
}

void TreeWalker::execSpawn(const ir::Function& fn, const ir::Inst& in,
                           Frame& f, Runtime& rt) {
  f[static_cast<std::size_t>(in.result)].u.task =
      rt.spawn([&] { execBody(fn, in.regions[0], f, rt, "spawned task"); });
}

void TreeWalker::execFork(const ir::Function& fn, const ir::Inst& in,
                          Frame& f, Runtime& rt) {
  int n = rt.teamSize(f[static_cast<std::size_t>(in.operands[0])].u.i);
  const ir::Region& body = in.regions[0];
  // Barrier-delimited segments: segment si ends at the si-th top-level
  // barrier, the last one at the end of the body.
  std::vector<std::size_t> ends;
  for (std::size_t k = 0; k < body.insts.size(); ++k)
    if (body.insts[k].op == Op::BarrierOp) ends.push_back(k);
  ends.push_back(body.insts.size());
  // Per-thread private storage for values defined inside the fork body (they
  // must survive across barrier-delimited segments per thread).
  const std::vector<int>& priv = definedValues(in);
  std::vector<std::vector<RtVal>> store(static_cast<std::size_t>(n),
                                        std::vector<RtVal>(priv.size()));
  rt.fork(n, static_cast<int>(ends.size()), [&](int si, int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < priv.size(); ++k)
      f[static_cast<std::size_t>(priv[k])] = s[k];
    f[static_cast<std::size_t>(body.args[0])] = RtVal::I(t);
    std::size_t begin =
        si == 0 ? 0 : ends[static_cast<std::size_t>(si) - 1] + 1;
    for (std::size_t k = begin; k < ends[static_cast<std::size_t>(si)]; ++k)
      PARAD_CHECK(execInst(fn, body.insts[k], f, rt) == Flow::Normal,
                  "return out of a fork body");
    for (std::size_t k = 0; k < priv.size(); ++k)
      s[k] = f[static_cast<std::size_t>(priv[k])];
  });
}

Flow TreeWalker::execInst(const ir::Function& fn, const ir::Inst& in,
                          Frame& f, Runtime& rt) {
  ++rt.insts;
  rt.probe();
  psim::WorkerCtx& w = rt.ts->w;
  auto V = [&](std::size_t i) -> RtVal& {
    return f[static_cast<std::size_t>(in.operands[i])];
  };
  auto res = [&]() -> RtVal& {
    return f[static_cast<std::size_t>(in.result)];
  };
  // Operand i of an ops.def statement; a unary or binary op's missing ones
  // read as zero.
  auto operand = [&](std::size_t i) -> const RtVal& {
    return i < in.operands.size() ? V(i) : kNoOperand;
  };

  switch (in.op) {
    case Op::ConstF: res().u.f = in.fconst; return Flow::Normal;
    case Op::ConstI:
    case Op::ConstB: res().u.i = in.iconst; return Flow::Normal;

#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...)                  \
    case Op::Id: {                                                     \
      w.advance(rt.ct.cost);                                           \
      [[maybe_unused]] const RtVal& A = operand(0);                    \
      [[maybe_unused]] const RtVal& B = operand(1);                    \
      [[maybe_unused]] const RtVal& C = operand(2);                    \
      RtVal& R = res();                                                \
      __VA_ARGS__;                                                     \
      return Flow::Normal;                                             \
    }
#include "src/ir/ops.def"

    case Op::Alloc:
      res().u.p = rt.alloc(static_cast<Type>(in.iconst), V(0).u.i, in.flags);
      return Flow::Normal;
    case Op::Free: rt.free(V(0).u.p); return Flow::Normal;
    case Op::Load:
      w.advance(rt.load(V(0).u.p, V(1).u.i, res()));
      return Flow::Normal;
    case Op::Store:
      w.advance(rt.store(V(0).u.p, V(1).u.i, V(2)));
      return Flow::Normal;
    case Op::AtomicAddF:
      rt.atomicAdd(V(0).u.p, V(1).u.i, V(2).u.f);
      return Flow::Normal;
    case Op::Memset0: rt.memset0(V(0).u.p, V(1).u.i); return Flow::Normal;

    case Op::Call: {
      const ir::Function& callee = mod_.get(in.sym);
      RtVal callerRet = rt.enterCall();
      Frame cf(static_cast<std::size_t>(callee.numValues()));
      PARAD_CHECK(in.operands.size() == callee.paramTypes.size(),
                  "wrong argument count calling @", callee.name);
      for (std::size_t i = 0; i < in.operands.size(); ++i)
        cf[static_cast<std::size_t>(callee.body.args[i])] = V(i);
      execRegion(callee, callee.body, cf, rt);
      RtVal out = rt.leaveCall(callerRet);
      if (in.result >= 0) res() = out;
      return Flow::Normal;
    }
    case Op::CallIndirect:
      fail("call.indirect reached the interpreter; run the "
           "resolve-indirect-calls pass first (jlite symbol table)");
    case Op::Return:
      if (!in.operands.empty()) rt.retVal = V(0);
      return Flow::Return;

    case Op::For: {
      i64 lo = V(0).u.i, hi = V(1).u.i;
      const ir::Region& body = in.regions[0];
      for (i64 i = lo; i < hi; ++i) {
        f[static_cast<std::size_t>(body.args[0])] = RtVal::I(i);
        w.advance(rt.ct.loopIter);
        if (execRegion(fn, body, f, rt) == Flow::Return) return Flow::Return;
      }
      return Flow::Normal;
    }
    case Op::While: {
      const ir::Region& body = in.regions[0];
      for (i64 iter = 0;; ++iter) {
        PARAD_CHECK(iter < (i64(1) << 32), "runaway while loop");
        f[static_cast<std::size_t>(body.args[0])] = RtVal::I(iter);
        w.advance(rt.ct.loopIter);
        rt.yield = false;
        if (execRegion(fn, body, f, rt) == Flow::Return) return Flow::Return;
        if (!rt.yield) break;
      }
      return Flow::Normal;
    }
    case Op::Yield:
      rt.yield = V(0).u.i != 0;
      return Flow::Normal;
    case Op::If: {
      w.advance(rt.ct.intOp);
      const ir::Region& r = V(0).u.i ? in.regions[0] : in.regions[1];
      return execRegion(fn, r, f, rt);
    }

    case Op::ParallelFor:
    case Op::Workshare:
      execLoop(fn, in, f, rt);
      return Flow::Normal;
    case Op::Fork: execFork(fn, in, f, rt); return Flow::Normal;
    case Op::BarrierOp:
      // Handled structurally by execFork's segmentation.
      PARAD_UNREACHABLE("barrier outside fork segmentation");
    case Op::ThreadIdOp: res().u.i = rt.ts->tid; return Flow::Normal;
    case Op::NumThreadsOp:
      res().u.i = rt.numThreadsDefault();
      return Flow::Normal;

    case Op::Spawn: execSpawn(fn, in, f, rt); return Flow::Normal;
    case Op::SyncOp: rt.sync(V(0).u.task); return Flow::Normal;

    case Op::MpRank: res().u.i = rt.env.rank; return Flow::Normal;
    case Op::MpSize: res().u.i = rt.env.ranks; return Flow::Normal;
    case Op::MpIsend:
      res().u.req = rt.isend(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      return Flow::Normal;
    case Op::MpIrecv:
      res().u.req = rt.irecv(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      return Flow::Normal;
    case Op::MpWaitOp: rt.wait(V(0).u.req); return Flow::Normal;
    case Op::MpSend:
      rt.send(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      return Flow::Normal;
    case Op::MpRecv:
      rt.recv(V(0).u.p, V(1).u.i, V(2).u.i, V(3).u.i);
      return Flow::Normal;
    case Op::MpAllreduce:
      rt.allreduce(V(0).u.p, V(1).u.p, V(2).u.i,
                   static_cast<ir::ReduceKind>(in.iconst),
                   in.operands.size() == 4 ? &V(3).u.p : nullptr);
      return Flow::Normal;
    case Op::MpBarrier: rt.barrier(); return Flow::Normal;

    case Op::OmpParallelFor:
      fail("omp.parallel.for reached the interpreter; run the lower-omp pass "
           "first");

    case Op::JlAllocArray:
      res().u.p = rt.allocBoxedArray(V(0).u.i);
      return Flow::Normal;
    case Op::GcPreserveBegin:
      w.advance(rt.gcPreserve());
      res().u.i = 0;
      return Flow::Normal;
    case Op::GcPreserveEnd:
      w.advance(rt.gcPreserve());
      return Flow::Normal;
  }
  PARAD_UNREACHABLE("unhandled opcode");
}

}  // namespace parad::interp
