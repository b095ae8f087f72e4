#include "src/cotape/cotape.h"

#include <algorithm>
#include <cmath>

#include "src/ir/derivatives.h"

namespace parad::cotape {

using interp::RtVal;
using ir::Op;
using ir::Type;
using psim::RtPtr;

std::vector<std::int32_t>& TapeInterpreter::idxOf(RtPtr p) {
  auto it = memIdx_.find(p.obj);
  if (it == memIdx_.end()) {
    const psim::MemObject& o = machine_.mem().get(p);
    it = memIdx_
             .emplace(p.obj, std::vector<std::int32_t>(
                                 static_cast<std::size_t>(o.count), -1))
             .first;
  }
  return it->second;
}

void TapeInterpreter::gradient(const ir::Function& fn,
                               std::vector<interp::RtVal> args,
                               psim::RankEnv& env,
                               const std::vector<ActiveBinding>& inputs,
                               const std::vector<ActiveBinding>& outputs) {
  PARAD_CHECK(args.size() == fn.paramTypes.size(),
              "cotape: wrong argument count for @", fn.name);
  stmts_.clear();
  comms_.clear();
  commAt_.clear();
  memIdx_.clear();
  nextIdx_ = 0;

  // Register inputs: every element gets a fresh adjoint index.
  std::vector<std::vector<std::int32_t>> inputIdx(inputs.size());
  for (std::size_t bi = 0; bi < inputs.size(); ++bi) {
    const ActiveBinding& ab = inputs[bi];
    auto& mi = idxOf(ab.primal);
    for (i64 k = 0; k < ab.count; ++k) {
      std::int32_t id = fresh();
      mi[static_cast<std::size_t>(ab.primal.off + k)] = id;
      inputIdx[bi].push_back(id);
    }
  }

  // Forward (taping) sweep.
  interp::Runtime rt(machine_, env);
  Frame f(static_cast<std::size_t>(fn.numValues()));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(fn.body.args[i])].v = args[i];
  execRegion(fn, fn.body, f, rt);
  machine_.stats().tapeBytes +=
      stmts_.size() * sizeof(Stmt) + comms_.size() * 64;

  // Seed from output shadows (using the *final* indices of the locations),
  // consuming the seeds: like the IR engine's store adjoints, the output
  // shadow is zeroed so in/out buffers end up holding only input gradients.
  adjoint_.assign(static_cast<std::size_t>(nextIdx_), 0.0);
  for (const ActiveBinding& ab : outputs) {
    auto& mi = idxOf(ab.primal);
    for (i64 k = 0; k < ab.count; ++k) {
      std::int32_t id = mi[static_cast<std::size_t>(ab.primal.off + k)];
      if (id >= 0) {
        adjoint_[static_cast<std::size_t>(id)] +=
            machine_.mem().atF(ab.shadow, k);
        machine_.mem().atF(ab.shadow, k) = 0;
      }
    }
  }

  reverse(rt);

  // Extract input gradients (initial indices).
  for (std::size_t bi = 0; bi < inputs.size(); ++bi) {
    const ActiveBinding& ab = inputs[bi];
    for (i64 k = 0; k < ab.count; ++k)
      machine_.mem().atF(ab.shadow, k) +=
          adjoint_[static_cast<std::size_t>(inputIdx[bi][(std::size_t)k])];
  }
  rt.finish();
}

void TapeInterpreter::reverse(interp::Runtime& rt) {
  const psim::CostModel& c = machine_.config().cost;
  psim::WorkerCtx& w = rt.ts->w;
  constexpr i64 kTagShift = i64(1) << 20;
  std::size_t commIdx = comms_.size();
  int rankSocket = w.socket;
  std::size_t pos = stmts_.size();
  while (true) {
    // Handle communication records that occurred after statement pos-1.
    while (commIdx > 0 && commAt_[commIdx - 1] >= pos) {
      const CommRec& cr = comms_[--commIdx];
      PARAD_CHECK(cr.tag < static_cast<int>(kTagShift),
                  "cotape: primal mp tag ", cr.tag,
                  " is >= the adjoint tag shift ", kTagShift,
                  "; adjoint messages would collide with primal traffic");
      switch (cr.kind) {
        case CommKind::Isend: {
          // Receive the adjoints of the values we sent, accumulate.
          RtPtr tmp = machine_.mem().alloc(Type::F64, cr.count, rankSocket);
          rt.recv(tmp, cr.count, cr.peer, cr.tag + kTagShift);
          for (i64 k = 0; k < cr.count; ++k) {
            std::int32_t id = cr.indices[(std::size_t)k];
            if (id >= 0)
              adjoint_[(std::size_t)id] += machine_.mem().atF(tmp, k);
            rt.chargeMem(rankSocket, 8);
          }
          machine_.mem().free(tmp);
          break;
        }
        case CommKind::Irecv: {
          // Send the adjoints of what we received back to the sender.
          std::vector<double> buf((std::size_t)cr.count, 0.0);
          for (i64 k = 0; k < cr.count; ++k) {
            std::int32_t id = cr.indices[(std::size_t)k];
            if (id >= 0) {
              buf[(std::size_t)k] = adjoint_[(std::size_t)id];
              adjoint_[(std::size_t)id] = 0;
            }
            rt.chargeMem(rankSocket, 8);
          }
          rt.send(buf.data(), cr.count, cr.peer, cr.tag + kTagShift);
          break;
        }
        case CommKind::AllreduceSum:
        case CommKind::AllreduceMinMax: {
          std::vector<double> buf((std::size_t)cr.count, 0.0);
          for (i64 k = 0; k < cr.count; ++k) {
            std::int32_t id = cr.indices[(std::size_t)k];
            if (id >= 0) {
              buf[(std::size_t)k] = adjoint_[(std::size_t)id];
              adjoint_[(std::size_t)id] = 0;
            }
          }
          RtPtr tmp = machine_.mem().alloc(Type::F64, cr.count, rankSocket);
          rt.allreduce(buf.data(), tmp, cr.count, ir::ReduceKind::Sum,
                       nullptr);
          for (i64 k = 0; k < cr.count; ++k) {
            std::int32_t sid = cr.sendIndices[(std::size_t)k];
            bool mine = cr.kind == CommKind::AllreduceSum ||
                        (k < static_cast<i64>(cr.won.size()) &&
                         cr.won[(std::size_t)k]);
            if (sid >= 0 && mine)
              adjoint_[(std::size_t)sid] += machine_.mem().atF(tmp, k);
            rt.chargeMem(rankSocket, 8);
          }
          machine_.mem().free(tmp);
          break;
        }
        case CommKind::Barrier:
          rt.barrier();
          break;
      }
    }
    if (pos == 0) break;
    --pos;
    const Stmt& s = stmts_[pos];
    // Tape read + random-access adjoint traffic: the CoDiPack-characteristic
    // serial overhead.
    w.advance(cfg_.tapeReadCost);
    rt.chargeMem(rankSocket, 8);  // adjoint[lhs]
    double g = adjoint_[(std::size_t)s.lhs];
    adjoint_[(std::size_t)s.lhs] = 0;
    if (g != 0) {
      for (int k = 0; k < s.nargs; ++k) {
        if (s.arg[k] < 0) continue;
        rt.chargeMem(rankSocket, 8);
        w.advance(c.flop * 2);
        adjoint_[(std::size_t)s.arg[k]] += g * s.partial[k];
      }
    }
  }
}

TapeInterpreter::Flow TapeInterpreter::execRegion(const ir::Function& fn,
                                                  const ir::Region& r,
                                                  Frame& f,
                                                  interp::Runtime& rt) {
  for (const ir::Inst& in : r.insts)
    if (execInst(fn, in, f, rt) == Flow::Return) return Flow::Return;
  return Flow::Normal;
}

void TapeInterpreter::execArith(const ir::Inst& in, Frame& f,
                                psim::WorkerCtx& w) {
  static const TapedVal kNoOperand{};
  auto V = [&](std::size_t i) -> const TapedVal& {
    return i < in.operands.size() ? f[static_cast<std::size_t>(in.operands[i])]
                                  : kNoOperand;
  };
  TapedVal& out = f[static_cast<std::size_t>(in.result)];
  // The value, from the op's ops.def row.
  switch (in.op) {
#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...)                  \
    case Op::Id: {                                                     \
      w.advance(ct_.cost);                                             \
      [[maybe_unused]] const RtVal& A = V(0).v;                        \
      [[maybe_unused]] const RtVal& B = V(1).v;                        \
      [[maybe_unused]] const RtVal& C = V(2).v;                        \
      RtVal& R = out.v;                                                \
      __VA_ARGS__;                                                     \
      break;                                                           \
    }
#include "src/ir/ops.def"
    default: PARAD_UNREACHABLE("non-arithmetic op in execArith");
  }
  // The tape: an f64 result depending on an active operand gets a fresh
  // index and a statement holding its partials, its derivative rules at
  // g = 1. Select forwards the index of the arm it picked; other non-f64
  // results are inactive.
  if (in.op == Op::Select) {
    out.idx = V(0).v.u.i ? V(1).idx : V(2).idx;
    return;
  }
  if (ir::noDerivative(in.op)) out.idx = -1;
  if (!ir::hasDerivative(in.op)) return;
  out.idx = -1;
  if (V(0).idx < 0 && V(1).idx < 0) return;
  ir::DoubleRules m{V(0).v.u.f, V(1).v.u.f, out.v.u.f};
  Stmt s;
  s.lhs = out.idx = fresh();
  for (std::size_t i = 0; i < 2; ++i)
    if (V(i).idx >= 0) {
      s.arg[s.nargs] = V(i).idx;
      s.partial[s.nargs++] = *ir::derivative(in.op, int(i), 1.0, m);
    }
  stmts_.push_back(s);
  w.advance(cfg_.tapeWriteCost);
}

TapeInterpreter::Flow TapeInterpreter::execInst(const ir::Function& fn,
                                                const ir::Inst& in, Frame& f,
                                                interp::Runtime& rt) {
  const psim::CostModel& c = machine_.config().cost;
  psim::MemoryManager& mem = machine_.mem();
  psim::RankEnv& env = rt.env;
  psim::WorkerCtx& w = rt.ts->w;
  auto V = [&](std::size_t i) -> TapedVal& {
    return f[static_cast<std::size_t>(in.operands[i])];
  };
  auto out = [&]() -> TapedVal& {
    return f[static_cast<std::size_t>(in.result)];
  };
  if (ir::traits(in.op).arith) {
    execArith(in, f, w);
    return Flow::Normal;
  }

  switch (in.op) {
    case Op::ConstF: out().v.u.f = in.fconst; out().idx = -1; return Flow::Normal;
    case Op::ConstI: case Op::ConstB: out().v.u.i = in.iconst; return Flow::Normal;

    case Op::Alloc:
      out().v.u.p =
          rt.alloc(static_cast<Type>(in.iconst), V(0).v.u.i, in.flags);
      return Flow::Normal;
    case Op::Free:
      // Charged, but the object stays alive: its taped indices may still be
      // needed.
      w.advance(rt.ct.freeCost);
      return Flow::Normal;
    case Op::Load: {
      RtPtr p = V(0).v.u.p;
      i64 idx = V(1).v.u.i;
      TapedVal& res = out();
      w.advance(rt.load(p, idx, res.v));
      const psim::MemObject& o = mem.get(p);
      if (o.elem == Type::F64) {
        res.idx = idxOf(p)[static_cast<std::size_t>(p.off + idx)];
        // Reading the activity index alongside the value (active type).
        rt.chargeMem(o.homeSocket, 4);
      }
      return Flow::Normal;
    }
    case Op::Store: {
      RtPtr p = V(0).v.u.p;
      i64 idx = V(1).v.u.i;
      w.advance(rt.store(p, idx, V(2).v));
      const psim::MemObject& o = mem.get(p);
      if (o.elem == Type::F64) {
        idxOf(p)[static_cast<std::size_t>(p.off + idx)] = V(2).idx;
        rt.chargeMem(o.homeSocket, 4);
      }
      return Flow::Normal;
    }
    case Op::Memset0: {
      RtPtr p = V(0).v.u.p;
      i64 count = V(1).v.u.i;
      rt.memset0(p, count);
      auto& mi = idxOf(p);
      for (i64 k = 0; k < count; ++k)
        mi[static_cast<std::size_t>(p.off + k)] = -1;
      return Flow::Normal;
    }

    case Op::Call: {
      const ir::Function& callee = mod_.get(in.sym);
      w.advance(c.callCost);
      Frame cf(static_cast<std::size_t>(callee.numValues()));
      for (std::size_t i = 0; i < in.operands.size(); ++i)
        cf[static_cast<std::size_t>(callee.body.args[i])] = V(i);
      RtVal saved = retVal_;
      execRegion(callee, callee.body, cf, rt);
      if (in.result >= 0) {
        out().v = retVal_;
        out().idx = retIdx_;
      }
      retVal_ = saved;
      return Flow::Normal;
    }
    case Op::Return:
      if (!in.operands.empty()) {
        retVal_ = V(0).v;
        retIdx_ = V(0).idx;
      }
      return Flow::Return;

    case Op::For: {
      i64 lo = V(0).v.u.i, hi = V(1).v.u.i;
      const ir::Region& body = in.regions[0];
      for (i64 i = lo; i < hi; ++i) {
        f[static_cast<std::size_t>(body.args[0])].v = RtVal::I(i);
        w.advance(c.loopIter);
        if (execRegion(fn, body, f, rt) == Flow::Return)
          return Flow::Return;
      }
      return Flow::Normal;
    }
    case Op::While: {
      const ir::Region& body = in.regions[0];
      for (i64 iter = 0;; ++iter) {
        f[static_cast<std::size_t>(body.args[0])].v = RtVal::I(iter);
        w.advance(c.loopIter);
        yield_ = false;
        if (execRegion(fn, body, f, rt) == Flow::Return)
          return Flow::Return;
        if (!yield_) break;
      }
      return Flow::Normal;
    }
    case Op::Yield:
      yield_ = V(0).v.u.i != 0;
      return Flow::Normal;
    case Op::If: {
      w.advance(c.intOp);
      return execRegion(fn, V(0).v.u.i ? in.regions[0] : in.regions[1], f, rt);
    }

    case Op::MpRank: out().v.u.i = env.rank; return Flow::Normal;
    case Op::MpSize: out().v.u.i = env.ranks; return Flow::Normal;
    case Op::MpIsend:
    case Op::MpSend: {
      RtPtr p = V(0).v.u.p;
      i64 count = V(1).v.u.i;
      int dest = static_cast<int>(V(2).v.u.i);
      int tag = static_cast<int>(V(3).v.u.i);
      if (in.op == Op::MpIsend)
        out().v.u.req = rt.isend(p, count, dest, tag);
      else
        rt.send(p, count, dest, tag);
      CommRec cr;
      cr.kind = CommKind::Isend;
      cr.peer = dest;
      cr.tag = tag;
      cr.count = count;
      auto& mi = idxOf(p);
      cr.indices.assign(mi.begin() + p.off, mi.begin() + p.off + count);
      commAt_.push_back(stmts_.size());
      comms_.push_back(std::move(cr));
      return Flow::Normal;
    }
    case Op::MpIrecv: {
      RtPtr p = V(0).v.u.p;
      i64 count = V(1).v.u.i;
      int src = static_cast<int>(V(2).v.u.i);
      int tag = static_cast<int>(V(3).v.u.i);
      psim::ReqId id = rt.irecv(p, count, src, tag);
      out().v.u.req = id;
      pendingRecv_[id] = {p, count, src, tag};
      return Flow::Normal;
    }
    case Op::MpRecv: {
      RtPtr p = V(0).v.u.p;
      i64 count = V(1).v.u.i;
      int src = static_cast<int>(V(2).v.u.i);
      int tag = static_cast<int>(V(3).v.u.i);
      rt.recv(p, count, src, tag);
      recordRecv(p, count, src, tag);
      return Flow::Normal;
    }
    case Op::MpWaitOp: {
      psim::ReqId id = V(0).v.u.req;
      rt.wait(id);
      auto it = pendingRecv_.find(id);
      if (it != pendingRecv_.end()) {
        recordRecv(it->second.p, it->second.count, it->second.src,
                   it->second.tag);
        pendingRecv_.erase(it);
      }
      return Flow::Normal;
    }
    case Op::MpAllreduce: {
      RtPtr sp = V(0).v.u.p;
      RtPtr rp = V(1).v.u.p;
      i64 count = V(2).v.u.i;
      auto kind = static_cast<ir::ReduceKind>(in.iconst);
      std::vector<i64> winners;
      rt.allreduce(rt.sendBuffer(sp, count, "allreduce send"), rp, count,
                   kind, kind == ir::ReduceKind::Sum ? nullptr : &winners);
      CommRec cr;
      cr.kind = kind == ir::ReduceKind::Sum ? CommKind::AllreduceSum
                                            : CommKind::AllreduceMinMax;
      cr.count = count;
      auto& si = idxOf(sp);
      cr.sendIndices.assign(si.begin() + sp.off, si.begin() + sp.off + count);
      auto& ri = idxOf(rp);
      cr.indices.resize((std::size_t)count);
      for (i64 k = 0; k < count; ++k) {
        std::int32_t id = fresh();
        ri[static_cast<std::size_t>(rp.off + k)] = id;
        cr.indices[(std::size_t)k] = id;
      }
      if (kind != ir::ReduceKind::Sum) {
        cr.won.resize((std::size_t)count);
        for (i64 k = 0; k < count; ++k)
          cr.won[(std::size_t)k] = winners[(std::size_t)k] == env.rank;
      }
      commAt_.push_back(stmts_.size());
      comms_.push_back(std::move(cr));
      return Flow::Normal;
    }
    case Op::MpBarrier: {
      rt.barrier();
      CommRec cr;
      cr.kind = CommKind::Barrier;
      commAt_.push_back(stmts_.size());
      comms_.push_back(std::move(cr));
      return Flow::Normal;
    }

    case Op::Fork:
    case Op::ParallelFor:
    case Op::Workshare:
    case Op::BarrierOp:
    case Op::Spawn:
    case Op::SyncOp:
    case Op::OmpParallelFor:
      fail("cotape cannot differentiate shared-memory parallel constructs "
           "(like CoDiPack with OpenMP, paper §VIII)");
    default:
      fail("cotape: unsupported op ", ir::traits(in.op).name);
  }
}

void TapeInterpreter::recordRecv(RtPtr p, i64 count, int src, int tag) {
  CommRec cr;
  cr.kind = CommKind::Irecv;
  cr.peer = src;
  cr.tag = tag;
  cr.count = count;
  auto& mi = idxOf(p);
  cr.indices.resize((std::size_t)count);
  for (i64 k = 0; k < count; ++k) {
    std::int32_t id = fresh();
    mi[static_cast<std::size_t>(p.off + k)] = id;
    cr.indices[(std::size_t)k] = id;
  }
  commAt_.push_back(stmts_.size());
  comms_.push_back(std::move(cr));
}

}  // namespace parad::cotape
