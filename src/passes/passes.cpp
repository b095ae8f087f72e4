#include "src/passes/passes.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/fninfo.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/ir/verifier.h"
#include "src/ir/printer.h"
#include "src/passes/cloner.h"

namespace parad::passes {

using ir::Inst;
using ir::Op;
using ir::Region;
using ir::Type;
using ir::Value;

void rewriteFunction(ir::Module& mod, const std::string& name,
                     const Cloner::Hook& hook) {
  // The builder replaces the module's slot only in finish(), after the
  // clone has read the source in place.
  const ir::Function& src = mod.get(name);
  ir::FunctionBuilder b(mod, name, src.paramTypes, src.retType);
  Cloner c(src, b, hook);
  for (std::size_t i = 0; i < src.paramTypes.size(); ++i)
    c.map(src.body.args[i], b.param(static_cast<int>(i)));
  c.cloneRegion(src.body);
  b.finish();
  interp::ProgramCache::global().invalidate(name);
}

// ---------------------------------------------------------------------------
// Inlining
// ---------------------------------------------------------------------------

namespace {

// Does any instruction of `r`, at any depth, have op `op`? The rewriting
// passes skip the clone when it does not: cloning a function unchanged
// rebuilds the same IR (Passes.IdentityRewriteIsANoOp).
bool containsOp(const Region& r, Op op) {
  for (const Inst& in : r.insts) {
    if (in.op == op) return true;
    for (const Region& sub : in.regions)
      if (containsOp(sub, op)) return true;
  }
  return false;
}

void collectDefs(const Region& r, std::vector<const Inst*>& def) {
  for (const Inst& in : r.insts) {
    if (in.result >= 0) def[(std::size_t)in.result] = &in;
    for (const Region& sub : in.regions) collectDefs(sub, def);
  }
}

int countReturns(const Region& r) {
  int n = 0;
  for (const Inst& in : r.insts) {
    if (in.op == Op::Return) ++n;
    for (const Region& sub : in.regions) n += countReturns(sub);
  }
  return n;
}

// Clones `callee` into the current builder position of `outer`, mapping
// params to `args`; returns the returned value (invalid for void).
Value inlineBody(ir::Module& mod, Cloner& outer, const ir::Function& callee,
                 const std::vector<Value>& args, int depth) {
  PARAD_CHECK(depth < 64, "inline depth exceeded (recursive calls?)");
  PARAD_CHECK(!callee.body.insts.empty() &&
                  callee.body.insts.back().op == Op::Return &&
                  countReturns(callee.body) == 1,
              "inliner: @", callee.name,
              " must have a single trailing return");
  Value returned;
  Cloner inner(
      callee, outer.builder(),
      [&](Cloner& c, const Inst& in) -> bool {
        if (in.op == Op::Return) {
          if (!in.operands.empty()) returned = c.get(in.operands[0]);
          return true;
        }
        if (in.op == Op::Call) {
          std::vector<Value> innerArgs;
          for (int o : in.operands) innerArgs.push_back(c.get(o));
          Value r = inlineBody(mod, c, mod.get(in.sym), innerArgs, depth + 1);
          if (in.result >= 0) c.map(in.result, r);
          return true;
        }
        return false;
      });
  for (std::size_t i = 0; i < callee.paramTypes.size(); ++i)
    inner.map(callee.body.args[i], args[i]);
  inner.cloneRegion(callee.body);
  return returned;
}

}  // namespace

void inlineCalls(ir::Module& mod, const std::string& fn) {
  if (containsOp(mod.get(fn).body, Op::Call)) {
    rewriteFunction(mod, fn, [&](Cloner& c, const Inst& in) -> bool {
      if (in.op != Op::Call) return false;
      std::vector<Value> args;
      for (int o : in.operands) args.push_back(c.get(o));
      Value r = inlineBody(mod, c, mod.get(in.sym), args, 0);
      if (in.result >= 0) c.map(in.result, r);
      return true;
    });
  }
  ir::verify(mod, mod.get(fn));
}

// ---------------------------------------------------------------------------
// Indirect-call resolution (jlite, §VI-C1)
// ---------------------------------------------------------------------------

void resolveIndirect(ir::Module& mod, const std::string& fn) {
  const ir::Function& f0 = mod.get(fn);
  if (!containsOp(f0.body, Op::CallIndirect)) return;
  // Map value id -> defining inst for constant-address tracing.
  std::vector<const Inst*> def((std::size_t)f0.numValues(), nullptr);
  collectDefs(f0.body, def);
  rewriteFunction(mod, fn, [&](Cloner& c, const Inst& in) -> bool {
    if (in.op != Op::CallIndirect) return false;
    const Inst* d = def[(std::size_t)in.operands[0]];
    PARAD_CHECK(d && d->op == Op::ConstI,
                "resolve-indirect: address is not a constant symbol handle");
    const std::string* name = mod.symbols.lookup(d->iconst);
    PARAD_CHECK(name, "resolve-indirect: address ", d->iconst,
                " not in the symbol table");
    std::vector<Value> args;
    for (std::size_t i = 1; i < in.operands.size(); ++i)
      args.push_back(c.get(in.operands[i]));
    Value r = c.builder().call(*name, args);
    if (in.result >= 0) c.map(in.result, r);
    return true;
  });
  ir::verify(mod, mod.get(fn));
}

// ---------------------------------------------------------------------------
// omp dialect lowering (Fig. 3 / Fig. 6)
// ---------------------------------------------------------------------------

void lowerOmp(ir::Module& mod, const std::string& fn) {
  if (!containsOp(mod.get(fn).body, Op::OmpParallelFor)) return;
  rewriteFunction(mod, fn, [&](Cloner& c, const Inst& in) -> bool {
    if (in.op != Op::OmpParallelFor) return false;
    ir::FunctionBuilder& b = c.builder();
    const ir::OmpInfo& omp = *in.omp;
    Value lo = c.get(in.operands[0]);
    Value hi = c.get(in.operands[1]);
    Value nt = omp.numThreadsOperand >= 0
                   ? c.get(in.operands[(std::size_t)omp.numThreadsOperand])
                   : b.constI(0);
    // Team size as seen from outside the fork (default-team forks).
    Value teamSize = b.select(b.igt(nt, b.constI(0)), nt, b.numThreads());

    // Shared per-thread partial arrays for reductions.
    std::vector<Value> partials(omp.clauses.size());
    for (std::size_t ci = 0; ci < omp.clauses.size(); ++ci)
      if (omp.clauses[ci].kind == ir::OmpClauseKind::Reduction)
        partials[ci] = b.alloc(teamSize, Type::F64);

    b.emitFork(nt, [&](Value tid) {
      std::vector<Value> slots(omp.clauses.size());
      for (std::size_t ci = 0; ci < omp.clauses.size(); ++ci) {
        const ir::OmpClause& cl = omp.clauses[ci];
        Value slot = b.alloc(b.constI(1), Type::F64);
        slots[ci] = slot;
        switch (cl.kind) {
          case ir::OmpClauseKind::FirstPrivate:
            b.store(slot, b.constI(0), c.get(in.operands[2 + ci]));
            break;
          case ir::OmpClauseKind::Private:
          case ir::OmpClauseKind::LastPrivate:
            b.store(slot, b.constI(0), b.constF(0));
            break;
          case ir::OmpClauseKind::Reduction: {
            double ident = cl.reduce == ir::ReduceKind::Sum ? 0.0
                           : cl.reduce == ir::ReduceKind::Min ? 1e308
                                                              : -1e308;
            b.store(slot, b.constI(0), b.constF(ident));
            break;
          }
        }
      }
      b.emitWorkshare(lo, hi, [&](Value iv) {
        const Region& body = in.regions[0];
        c.map(body.args[0], iv);
        for (std::size_t ci = 0; ci < omp.clauses.size(); ++ci)
          c.map(body.args[1 + ci], slots[ci]);
        c.cloneRegion(body);
      });
      // Per-thread epilogues: publish reduction partials, copy out
      // lastprivate from the thread owning the final iteration.
      Value ntIn = b.numThreads();
      for (std::size_t ci = 0; ci < omp.clauses.size(); ++ci) {
        const ir::OmpClause& cl = omp.clauses[ci];
        if (cl.kind == ir::OmpClauseKind::Reduction) {
          b.store(partials[ci], tid, b.load(slots[ci], b.constI(0)));
        } else if (cl.kind == ir::OmpClauseKind::LastPrivate) {
          Value len = b.isub(hi, lo);
          Value chunk = b.idiv(b.isub(b.iadd(len, ntIn), b.constI(1)), ntIn);
          Value owner = b.idiv(b.isub(len, b.constI(1)), chunk);
          b.emitIf(b.band(b.igt(len, b.constI(0)), b.ieq(tid, owner)), [&] {
            b.store(c.get(in.operands[2 + ci]), b.constI(0),
                    b.load(slots[ci], b.constI(0)));
          });
        }
      }
      b.barrier();
      // Thread 0 combines reduction partials into their targets.
      b.emitIf(b.ieq(tid, b.constI(0)), [&] {
        for (std::size_t ci = 0; ci < omp.clauses.size(); ++ci) {
          const ir::OmpClause& cl = omp.clauses[ci];
          if (cl.kind != ir::OmpClauseKind::Reduction) continue;
          Value target = c.get(in.operands[2 + ci]);
          b.emitFor(b.constI(0), b.numThreads(), [&](Value t) {
            Value cur = b.load(target, b.constI(0));
            Value p = b.load(partials[ci], t);
            Value comb = cl.reduce == ir::ReduceKind::Sum ? b.fadd(cur, p)
                         : cl.reduce == ir::ReduceKind::Min ? b.fmin_(cur, p)
                                                            : b.fmax_(cur, p);
            b.store(target, b.constI(0), comb);
          });
        }
      });
    });
    return true;
  });
  ir::verify(mod, mod.get(fn));
}

// ---------------------------------------------------------------------------
// Constant folding + DCE
// ---------------------------------------------------------------------------

namespace {

// A folded constant is a runtime value, so ops.def's value statements read
// and write it as they do in the engines.
using ConstVal = interp::RtVal;

// The value of arithmetic op `op` on constant operands: its ops.def
// statement, so folding computes exactly what every engine would.
ConstVal evalArith(Op op, const ConstVal& A, const ConstVal& B) {
  static const ConstVal C{};
  ConstVal R;
  switch (op) {
#define PARAD_OP(...)
#define PARAD_ARITH(Id, name, effect, cost, sig, ...) \
    case Op::Id: {                                    \
      __VA_ARGS__;                                    \
      break;                                          \
    }
#include "src/ir/ops.def"
    default: PARAD_UNREACHABLE("non-arithmetic op in evalArith");
  }
  return R;
}

bool foldRegion(ir::Function& f, Region& r,
                std::unordered_map<int, ConstVal>& consts) {
  bool changed = false;
  for (Inst& in : r.insts) {
    for (Region& sub : in.regions) changed |= foldRegion(f, sub, consts);
    auto ci = [&](std::size_t k) -> const ConstVal* {
      auto it = consts.find(in.operands[k]);
      return it == consts.end() ? nullptr : &it->second;
    };
    switch (in.op) {
      case Op::ConstF: consts[in.result].u.f = in.fconst; break;
      case Op::ConstI:
      case Op::ConstB: consts[in.result].u.i = in.iconst; break;
      // The folded set: i64 add, sub, mul, min and max, f64 add, sub, mul.
      case Op::IAdd: case Op::ISub: case Op::IMul:
      case Op::IMinOp: case Op::IMaxOp:
      case Op::FAdd: case Op::FSub: case Op::FMul: {
        const ConstVal* a = ci(0);
        const ConstVal* b = ci(1);
        if (a && b) {
          ConstVal v = evalArith(in.op, *a, *b);
          if (in.op == Op::FAdd || in.op == Op::FSub || in.op == Op::FMul) {
            in.op = Op::ConstF;
            in.fconst = v.u.f;
          } else {
            in.op = Op::ConstI;
            in.iconst = v.u.i;
          }
          in.operands.clear();
          consts[in.result] = v;
          changed = true;
        }
        break;
      }
      default:
        break;
    }
  }
  return changed;
}

void collectUses(const Region& r, std::vector<int>& useCount) {
  for (const Inst& in : r.insts) {
    for (int o : in.operands) useCount[(std::size_t)o]++;
    for (const Region& sub : in.regions) collectUses(sub, useCount);
  }
}

// Drops the unused removable instructions of `r` and of its nested regions,
// compacting each instruction list in one pass; survivors keep their order.
bool dceRegion(Region& r, const std::vector<int>& useCount) {
  bool changed = false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < r.insts.size(); ++i) {
    Inst& in = r.insts[i];
    if (in.result >= 0 && useCount[(std::size_t)in.result] == 0 &&
        ir::removableWhenUnused(in.op) && in.regions.empty()) {
      changed = true;
      continue;
    }
    for (Region& sub : in.regions) changed |= dceRegion(sub, useCount);
    if (kept != i) r.insts[kept] = std::move(in);
    ++kept;
  }
  r.insts.resize(kept);
  return changed;
}

}  // namespace

void cleanup(ir::Module& mod, const std::string& fn) {
  ir::Function& f = mod.get(fn);
  for (int round = 0; round < 8; ++round) {
    std::unordered_map<int, ConstVal> consts;
    bool changed = foldRegion(f, f.body, consts);
    std::vector<int> useCount((std::size_t)f.numValues(), 0);
    collectUses(f.body, useCount);
    changed |= dceRegion(f.body, useCount);
    if (!changed) break;
  }
  ir::verify(mod, mod.get(fn));
  interp::ProgramCache::global().invalidate(fn);
}

// ---------------------------------------------------------------------------
// Invariant hoisting / OpenMPOpt stand-in
// ---------------------------------------------------------------------------

namespace {

bool isLoopLike(Op op) {
  return op == Op::For || op == Op::ParallelFor || op == Op::Workshare ||
         op == Op::Fork || op == Op::While;
}

// Memory-SSA-lite: classes whose writes all occur at the top level, plus the
// top-region position of the last such write. A load from such a class may
// be hoisted out of any loop whose top-level ancestor starts after the last
// write (the "parallel-region load hoisting" OpenMPOpt provides, which the
// paper's ablation measures).
struct StoreSummary {
  std::unordered_map<std::size_t, int> lastTopPos;  // class key -> position
  std::unordered_set<std::size_t> deepWritten;      // written at depth > 0
};

void summarizeStores(const analysis::FnInfo& info, const Region& r, int depth,
                     int topPos, StoreSummary& out) {
  int pos = 0;
  for (const Inst& in : r.insts) {
    int myTop = depth == 0 ? pos : topPos;
    auto markWrite = [&](int ptrOperand) {
      std::size_t key = info.ptrClass(ptrOperand).key();
      if (depth == 0)
        out.lastTopPos[key] = std::max(out.lastTopPos[key], myTop);
      else
        out.deepWritten.insert(key);
    };
    switch (in.op) {
      case Op::Store:
      case Op::AtomicAddF:
      case Op::Memset0:
      case Op::MpIrecv:
      case Op::MpRecv:
        markWrite(in.operands[0]);
        break;
      case Op::MpAllreduce:
        markWrite(in.operands[1]);
        break;
      default:
        break;
    }
    for (const Region& sub : in.regions)
      summarizeStores(info, sub, depth + 1, myTop, out);
    ++pos;
  }
}

// One hoisting round. The walk numbers insts and region args in pre-order.
// The values a loop-like inst defines are its region args and every result
// nested in it, including those already lifted out of its inner loops; their
// positions fill the interval that starts just after the loop's own slot. A
// result hoisted out of the loop takes the loop's own slot: outside the loop,
// still inside every loop around it. So one dense vector, filled once per
// round, replaces a set of defined ids per loop.
struct Hoister {
  const analysis::FnInfo& info;
  const StoreSummary& stores;
  std::vector<int> defPos;  // value id -> pre-order position, -1 if not seen
  int next = 0;

  // May `bi`, in the body of a loop at top-level position `myTop`, run once
  // before the loop? Its operands are checked separately.
  bool movable(const Inst& bi, bool loopIsFork, int myTop) const {
    if (!bi.regions.empty() || bi.result < 0) return false;
    if (ir::hoistablePure(bi.op)) return true;
    if (bi.op == Op::Load) {
      analysis::PtrClass cls = info.ptrClass(bi.operands[0]);
      std::size_t key = cls.key();
      bool neverWritten = !info.classWritten(cls);
      bool writesAllBefore =
          cls.kind != analysis::PtrClass::Kind::Unknown &&
          !stores.deepWritten.count(key) &&
          (!stores.lastTopPos.count(key) || stores.lastTopPos.at(key) < myTop);
      return neverWritten || writesAllBefore;
    }
    // Thread queries are invariant across loop iterations but not across
    // fork boundaries.
    return (bi.op == Op::ThreadIdOp || bi.op == Op::NumThreadsOp) &&
           !loopIsFork;
  }

  int hoistFrom(Region& parent, int depth, int topPos) {
    int moved = 0;
    for (std::size_t i = 0; i < parent.insts.size(); ++i) {
      int myTop = depth == 0 ? static_cast<int>(i) : topPos;
      Inst& in = parent.insts[i];
      int self = next++;
      if (in.result >= 0) defPos[(std::size_t)in.result] = self;
      int begin = next;
      for (Region& sub : in.regions) {
        for (int a : sub.args) defPos[(std::size_t)a] = next++;
        moved += hoistFrom(sub, depth + 1, myTop);
      }
      if (!isLoopLike(in.op)) continue;
      int end = next;
      auto inside = [&](int v) {
        int pos = defPos[(std::size_t)v];
        return pos >= begin && pos < end;
      };

      // Decide first, in body order, so a chain moves together.
      Region& body = in.regions[0];
      std::size_t n = 0;
      for (const Inst& bi : body.insts) {
        if (!movable(bi, in.op == Op::Fork, myTop)) continue;
        bool invariant = true;
        for (int o : bi.operands) invariant = invariant && !inside(o);
        if (!invariant) continue;
        defPos[(std::size_t)bi.result] = self;
        ++n;
      }
      if (n == 0) continue;

      // Partition in order: a result now at the loop's own slot moves out.
      // The vectors are sized exactly, so the function does not carry the
      // slack of vectors grown while it was built.
      std::vector<Inst> hoisted, kept;
      hoisted.reserve(n);
      kept.reserve(body.insts.size() - n);
      for (Inst& bi : body.insts) {
        if (bi.result >= 0 && defPos[(std::size_t)bi.result] == self)
          hoisted.push_back(std::move(bi));
        else
          kept.push_back(std::move(bi));
      }
      body.insts = std::move(kept);
      parent.insts.reserve(parent.insts.size() + n);
      parent.insts.insert(parent.insts.begin() + (std::ptrdiff_t)i,
                          std::make_move_iterator(hoisted.begin()),
                          std::make_move_iterator(hoisted.end()));
      i += n;
      moved += static_cast<int>(n);
    }
    return moved;
  }
};

}  // namespace

int hoistInvariants(ir::Module& mod, const std::string& fn) {
  int total = 0;
  for (int round = 0; round < 8; ++round) {
    ir::Function& f = mod.get(fn);
    analysis::FnInfo info(f);
    StoreSummary stores;
    summarizeStores(info, f.body, 0, 0, stores);
    Hoister h{info, stores, std::vector<int>((std::size_t)f.numValues(), -1)};
    int moved = h.hoistFrom(f.body, 0, 0);
    total += moved;
    if (moved == 0) break;
  }
  ir::verify(mod, mod.get(fn));
  interp::ProgramCache::global().invalidate(fn);
  return total;
}

// ---------------------------------------------------------------------------
// Fork merging (post-AD, Fig. 4 optimization)
// ---------------------------------------------------------------------------

namespace {

void replaceUses(Region& r, int from, int to) {
  for (Inst& in : r.insts) {
    for (int& o : in.operands)
      if (o == from) o = to;
    for (Region& sub : in.regions) replaceUses(sub, from, to);
  }
}

int mergeInRegion(Region& r) {
  int merged = 0;
  for (std::size_t i = 0; i < r.insts.size(); ++i) {
    for (Region& sub : r.insts[i].regions) merged += mergeInRegion(sub);
    while (r.insts[i].op == Op::Fork && i + 1 < r.insts.size() &&
           r.insts[i + 1].op == Op::Fork &&
           r.insts[i].operands[0] == r.insts[i + 1].operands[0]) {
      Inst& a = r.insts[i];
      Inst& b = r.insts[i + 1];
      int tidA = a.regions[0].args[0];
      int tidB = b.regions[0].args[0];
      replaceUses(b.regions[0], tidB, tidA);
      a.regions[0].insts.push_back(Inst(Op::BarrierOp));
      for (Inst& bi : b.regions[0].insts)
        a.regions[0].insts.push_back(std::move(bi));
      r.insts.erase(r.insts.begin() + (std::ptrdiff_t)i + 1);
      ++merged;
    }
  }
  return merged;
}

}  // namespace

int mergeAdjacentForks(ir::Module& mod, const std::string& fn) {
  ir::Function& f = mod.get(fn);
  int merged = mergeInRegion(f.body);
  ir::verify(mod, mod.get(fn));
  interp::ProgramCache::global().invalidate(fn);
  return merged;
}

// ---------------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------------

void prepareForAD(ir::Module& mod, const std::string& fn,
                  const PipelineOptions& opts) {
  resolveIndirect(mod, fn);
  inlineCalls(mod, fn);
  lowerOmp(mod, fn);
  if (opts.cleanup) cleanup(mod, fn);
  if (opts.ompOpt) hoistInvariants(mod, fn);
  if (opts.cleanup) cleanup(mod, fn);
}

void optimizeGradient(ir::Module& mod, const std::string& fn,
                      const PipelineOptions& opts) {
  if (opts.cleanup) cleanup(mod, fn);
  if (opts.ompOpt) {
    // Post-AD optimization (§V-E): hoist the reverse pass's recomputed
    // loop-invariant chains out of inner adjoint loops, then merge the
    // adjacent augmented/reverse forks (Fig. 4).
    hoistInvariants(mod, fn);
    mergeAdjacentForks(mod, fn);
  }
  if (opts.cleanup) cleanup(mod, fn);
}

}  // namespace parad::passes
