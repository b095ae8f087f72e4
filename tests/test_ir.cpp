// IR structural tests: verifier rejections, printer coverage, builder
// invariants, symbol table, and the op-class predicates read off ops.def.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/interp/lower.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

// The verifier's message for `mod`, or "" when it verifies. Every rejection
// below pins the exact text, so a rewrite of the verifier cannot silently
// change a diagnostic.
std::string verifierError(const ir::Module& mod) {
  try {
    ir::verify(mod);
  } catch (const parad::Error& e) {
    return e.what();
  }
  return "";
}

// Builds a function, corrupts it with `mutate`, and returns the verifier's
// message for the result.
std::string rejection(const std::function<void(ir::Module&)>& buildFn,
                      const std::function<void(ir::Function&)>& mutate) {
  ir::Module mod;
  buildFn(mod);
  EXPECT_EQ(verifierError(mod), "") << "the uncorrupted function must verify";
  mutate(mod.functions.begin()->second);
  return verifierError(mod);
}

void simpleFn(ir::Module& mod) {
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto v = b.load(b.param(0), b.constI(0));
  b.ret(b.fmul(v, v));
  b.finish();
}

ir::Inst* findOp(ir::Region& r, ir::Op op) {
  for (ir::Inst& in : r.insts) {
    if (in.op == op) return &in;
    for (ir::Region& sub : in.regions)
      if (ir::Inst* hit = findOp(sub, op)) return hit;
  }
  return nullptr;
}

}  // namespace

TEST(IrVerifier, RejectsTypeMismatchedOperands) {
  EXPECT_EQ(rejection(simpleFn,
                      [](ir::Function& f) {
                        // The fmul reads the i64 parameter instead of the
                        // loaded f64.
                        findOp(f.body, ir::Op::FMul)->operands[0] =
                            f.body.args[1];
                      }),
            "verifier: function @f: fmul: operand 0 has type i64, expected f64");
}

TEST(IrVerifier, RejectsUseBeforeDef) {
  EXPECT_EQ(rejection(simpleFn,
                      [](ir::Function& f) {
                        // Load's index operand becomes the fmul's (later)
                        // result.
                        findOp(f.body, ir::Op::Load)->operands[1] =
                            findOp(f.body, ir::Op::FMul)->result;
                      }),
            "verifier: function @f: use of value %4 before definition");
}

TEST(IrVerifier, RejectsDoubleDefinition) {
  auto twoConstsFn = [](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {}, Type::F64);
    auto one = b.constF(1);
    b.ret(b.fadd(one, b.constF(2)));
    b.finish();
  };
  EXPECT_EQ(rejection(twoConstsFn,
                      [](ir::Function& f) {
                        // Both constants define the same value id.
                        f.body.insts[1].result = f.body.insts[0].result;
                      }),
            "verifier: function @f: value defined twice");
}

TEST(IrVerifier, RejectsWrongRegionCount) {
  auto loopFn = [](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64});
    b.emitFor(b.constI(0), b.param(1),
              [&](Value i) { b.store(b.param(0), i, b.constF(1)); });
    b.ret();
    b.finish();
  };
  EXPECT_EQ(rejection(loopFn,
                      [](ir::Function& f) {
                        findOp(f.body, ir::Op::For)->regions.emplace_back();
                      }),
            "verifier: function @f: for: wrong region count");
}

TEST(IrVerifier, RejectsWrongCallArgumentCount) {
  auto callFn = [](ir::Module& mod) {
    {
      ir::FunctionBuilder b(mod, "sq", {Type::F64}, Type::F64);
      b.ret(b.fmul(b.param(0), b.param(0)));
      b.finish();
    }
    ir::FunctionBuilder b(mod, "top", {Type::F64}, Type::F64);
    b.ret(b.call("sq", {b.param(0)}));
    b.finish();
  };
  ir::Module mod;
  callFn(mod);
  ASSERT_EQ(verifierError(mod), "");
  findOp(mod.get("top").body, ir::Op::Call)->operands.push_back(0);
  EXPECT_EQ(verifierError(mod), "verifier: function @top: call @sq: wrong argument count");
}

TEST(IrVerifier, RejectsCallToUnknownFunction) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  // The builder looks the callee up itself.
  EXPECT_THROW(b.call("nonexistent", {b.param(0)}), parad::Error);
  b.ret(b.param(0));
  b.finish();
  // A call whose callee vanished afterwards is the verifier's to catch.
  ir::Inst call(ir::Op::Call);
  call.sym = "nonexistent";
  call.operands = {0};
  ir::Function& f = mod.get("f");
  f.body.insts.insert(f.body.insts.begin(), std::move(call));
  EXPECT_EQ(verifierError(mod), "verifier: function @f: call to unknown function @nonexistent");
}

TEST(IrVerifier, RejectsSelectArmMismatch) {
  auto selectFn = [](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::F64, Type::I64}, Type::F64);
    b.ret(b.select(b.constB(true), b.param(0), b.constF(2)));
    b.finish();
  };
  EXPECT_EQ(rejection(selectFn,
                      [](ir::Function& f) {
                        findOp(f.body, ir::Op::Select)->operands[2] =
                            f.body.args[1];
                      }),
            "verifier: function @f: select arm type mismatch");
}

TEST(IrVerifier, RejectsBadAllocElementType) {
  auto allocFn = [](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::I64});
    b.alloc(b.param(0), Type::F64);
    b.ret();
    b.finish();
  };
  EXPECT_EQ(rejection(allocFn,
                      [](ir::Function& f) {
                        findOp(f.body, ir::Op::Alloc)->iconst =
                            static_cast<i64>(Type::I1);
                      }),
            "verifier: function @f: alloc: bad element type");
}

TEST(IrVerifier, RejectsYieldBeforeEndOfWhileBody) {
  auto whileFn = [](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {});
    b.emitWhile([&](Value) { return b.constB(false); });
    b.ret();
    b.finish();
  };
  EXPECT_EQ(rejection(whileFn,
                      [](ir::Function& f) {
                        // Swap the condition and the yield.
                        std::vector<ir::Inst>& body =
                            findOp(f.body, ir::Op::While)->regions[0].insts;
                        ASSERT_EQ(body.size(), 2u);
                        std::swap(body[0], body[1]);
                      }),
            "verifier: function @f: yield must be the last inst of a while body");
}

TEST(IrVerifier, RejectsWorkshareOutsideFork) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64});
  // Build a legal fork+workshare, then splice the workshare out.
  auto zero = b.constI(0);
  b.emitFork(b.constI(2), [&](Value) {
    b.emitWorkshare(zero, b.param(1),
                    [&](Value i) { b.store(b.param(0), i, b.constF(1)); });
  });
  b.ret();
  b.finish();
  ASSERT_EQ(verifierError(mod), "");
  ir::Function& f = mod.get("f");
  // Move the workshare out of the fork to the end of the top level.
  ir::Inst* fork = findOp(f.body, ir::Op::Fork);
  ASSERT_NE(fork, nullptr);
  ir::Inst* ws = findOp(fork->regions[0], ir::Op::Workshare);
  ASSERT_NE(ws, nullptr);
  ir::Inst moved = std::move(*ws);
  fork->regions[0].insts.clear();
  f.body.insts.push_back(std::move(moved));
  EXPECT_EQ(verifierError(mod), "verifier: function @f: workshare outside fork");
}

TEST(IrVerifier, RejectsBarrierBelowForkTopLevel) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {});
  b.emitFork(b.constI(2), [&](Value tid) {
    b.emitIf(b.ieq(tid, b.constI(0)), [&] {
      b.barrier();  // illegal: not at the top level of the fork body
    });
  });
  b.ret();
  b.finish();
  EXPECT_EQ(verifierError(mod), "verifier: function @f: barrier only allowed at top level of a fork body");
}

TEST(IrVerifier, RejectsMpInsideFork) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64});
  b.emitFork(b.constI(2), [&](Value) {
    b.mpBarrier();  // message passing from a shared-memory region
  });
  b.ret();
  b.finish();
  EXPECT_EQ(verifierError(mod), "verifier: function @f: mp op inside a shared-memory region");
}

TEST(IrVerifier, RejectsWhileWithoutYield) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {});
  b.emitWhile([&](Value) { return b.constB(false); });
  b.ret();
  b.finish();
  ir::Function& f = mod.get("f");
  // Strip the yield.
  f.body.insts[0].regions[0].insts.pop_back();
  EXPECT_EQ(verifierError(mod), "verifier: function @f: while body must end in yield");
}

TEST(IrPrinter, CoversAllMajorConstructs) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "all", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto u = b.alloc(n, Type::F64);
  b.memset0(u, n);
  b.emitParallelFor(b.constI(0), n, [&](Value i) {
    b.store(u, i, b.sin_(b.load(x, i)));
  });
  b.emitFork(b.constI(0), [&](Value tid) {
    b.emitWorkshare(b.constI(0), n, [&](Value i) {
      b.atomicAddF(u, b.constI(0), b.load(u, i));
    });
    b.barrier();
    b.emitIf(b.ieq(tid, b.constI(0)), [&] { b.store(u, b.constI(0), b.constF(0)); });
  });
  auto t = b.spawn([&] { b.store(u, b.constI(1), b.constF(2)); });
  b.sync(t);
  auto send = b.alloc(b.constI(1), Type::F64);
  auto recv = b.alloc(b.constI(1), Type::F64);
  b.mpAllreduce(send, recv, b.constI(1), ir::ReduceKind::Min);
  auto desc = b.jlAllocArray(b.constI(4));
  auto tok = b.gcPreserveBegin({desc});
  b.gcPreserveEnd(tok);
  b.ret(b.load(u, b.constI(0)));
  b.finish();
  ir::verify(mod);
  std::string text = ir::print(mod);
  for (const char* needle :
       {"parallel.for", "fork", "workshare", "barrier", "spawn", "sync",
        "mp.allreduce", "jl.alloc.array", "gc.preserve.begin", "memset0",
        "atomic.add", "<min>"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(IrSymbols, InternIsStable) {
  ir::Module mod;
  i64 a = mod.symbols.intern("foo");
  i64 b2 = mod.symbols.intern("bar");
  EXPECT_NE(a, b2);
  EXPECT_EQ(mod.symbols.intern("foo"), a);
  EXPECT_EQ(*mod.symbols.lookup(a), "foo");
  EXPECT_EQ(mod.symbols.lookup(0xdeadbeef), nullptr);
}

TEST(OpTable, PredicatesMatchParentSets) {
  // Every op-class predicate, for every op, against the op sets the passes,
  // the exec engine and the AD planner listed by hand before ops.def
  // existed. The pipeline goldens cover only the ops the apps use; a wrong
  // effect class on, say, cbrt or ftoi would pass them.
  using ir::Op;
  const std::set<Op> fusable = {
      Op::FAdd,   Op::FSub,   Op::FMul,   Op::FDiv,   Op::FNeg,
      Op::Sqrt,   Op::Sin,    Op::Cos,    Op::Exp,    Op::Log,
      Op::Cbrt,   Op::Pow,    Op::FAbs,   Op::FMin,   Op::FMax,
      Op::IAdd,   Op::ISub,   Op::IMul,   Op::IDiv,   Op::IRem,
      Op::IMinOp, Op::IMaxOp, Op::ICmpEq, Op::ICmpNe, Op::ICmpLt,
      Op::ICmpLe, Op::ICmpGt, Op::ICmpGe, Op::FCmpLt, Op::FCmpLe,
      Op::FCmpGt, Op::FCmpGe, Op::FCmpEq, Op::BAnd,   Op::BOr,
      Op::BNot,   Op::Select, Op::IToF,   Op::FToI,   Op::PtrOffset};
  const std::set<Op> consts = {Op::ConstF, Op::ConstI, Op::ConstB};
  std::set<Op> hoistable = consts;
  for (Op op : fusable)
    if (op != Op::IDiv && op != Op::IRem) hoistable.insert(op);
  std::set<Op> removable = hoistable;
  removable.insert({Op::Load, Op::ThreadIdOp, Op::NumThreadsOp, Op::MpRank,
                    Op::MpSize});
  std::set<Op> reEmittable = consts;
  reEmittable.insert(fusable.begin(), fusable.end());
  reEmittable.insert(
      {Op::ThreadIdOp, Op::NumThreadsOp, Op::MpRank, Op::MpSize});
  const std::set<Op> topMaterializable = {
      Op::ConstI, Op::ConstF, Op::ConstB, Op::NumThreadsOp, Op::IAdd,
      Op::ISub,   Op::IMul,   Op::IDiv,   Op::IRem,         Op::IMinOp,
      Op::IMaxOp, Op::Select, Op::ICmpEq, Op::ICmpNe,       Op::ICmpLt,
      Op::ICmpLe, Op::ICmpGt, Op::ICmpGe};
  ASSERT_EQ(fusable.size(), 40u);
  ASSERT_EQ(removable.size(), 46u);
  for (int i = 0; i < ir::kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    SCOPED_TRACE(ir::traits(op).name);
    EXPECT_EQ(interp::fusableOp(op), fusable.count(op) == 1);
    EXPECT_EQ(ir::removableWhenUnused(op), removable.count(op) == 1);
    EXPECT_EQ(ir::hoistablePure(op), hoistable.count(op) == 1);
    EXPECT_EQ(core::reEmittableOp(op), reEmittable.count(op) == 1);
    EXPECT_EQ(core::topMaterializableOp(op),
              topMaterializable.count(op) == 1);
  }
}
