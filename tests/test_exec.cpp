// Differential tests for the execution backends: the lowered executor and
// the native codegen backend must be observationally identical to the
// tree-walking reference engine — same results, same memory effects, same
// RunStats counters, and the same virtual clocks bit for bit. The taping
// interpreter's forward sweep must compute the same arithmetic values and
// traps. Also covers the program cache (invalidation by passes, fingerprint revalidation after
// in-place IR mutation) and the machine-config knobs that used to be
// interpreter constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/cotape/cotape.h"
#include "src/interp/exec.h"
#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;

namespace {

/// The full engine matrix. "codegen" degrades to exec when the host has no
/// usable compiler — still a valid matrix member (identical by contract).
constexpr const char* kEngines[] = {"exec", "tree", "codegen"};

/// Outcome of one run: everything the engines must agree on.
struct Outcome {
  interp::RtVal ret{};
  double makespan = 0;
  std::uint64_t insts = 0, atomics = 0, messages = 0, bytesSent = 0,
                allocBytes = 0;
  std::vector<double> buf;  // probe buffer contents, if the kernel has one
};

/// Runs `fn` under one engine on a fresh machine. `makeArgs` allocates the
/// run's buffers (the first allocated ptr arg, if any, is the probe buffer
/// read back into Outcome::buf).
Outcome runEngine(const ir::Module& mod, const std::string& fn,
                  std::string_view e,
                  const std::function<std::vector<interp::RtVal>(
                      psim::Machine&, psim::RtPtr&)>& makeArgs,
                  int ranks, int threads, i64 readN,
                  psim::MachineConfig cfg = {}) {
  psim::Machine m(cfg);
  psim::RtPtr probe{};
  std::vector<interp::RtVal> args = makeArgs(m, probe);
  Outcome o;
  o.makespan = m.run({ranks, threads}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m, e);
    interp::RtVal r = it.run(mod.get(fn), args, env);
    if (env.rank == 0) o.ret = r;
  });
  o.insts = m.stats().instsExecuted;
  o.atomics = m.stats().atomicOps;
  o.messages = m.stats().messages;
  o.bytesSent = m.stats().bytesSent;
  o.allocBytes = m.stats().allocBytes;
  if (readN > 0) o.buf = readF64(m, probe, readN);
  return o;
}

/// Runs under the full engine matrix (tree x exec x codegen) and asserts
/// bit-identical observables against the exec baseline.
Outcome expectEnginesAgree(
    const ir::Module& mod, const std::string& fn,
    const std::function<std::vector<interp::RtVal>(psim::Machine&,
                                                   psim::RtPtr&)>& makeArgs,
    int ranks = 1, int threads = 4, i64 readN = 0,
    psim::MachineConfig cfg = {}) {
  Outcome lo = runEngine(mod, fn, "exec", makeArgs, ranks, threads, readN,
                         cfg);
  for (const char* eng : {"tree", "codegen"}) {
    SCOPED_TRACE(eng);
    Outcome o = runEngine(mod, fn, eng, makeArgs, ranks, threads, readN, cfg);
    EXPECT_EQ(lo.ret.u.i, o.ret.u.i) << fn << ": return values differ";
    EXPECT_EQ(lo.makespan, o.makespan) << fn << ": virtual clocks differ";
    EXPECT_EQ(lo.insts, o.insts) << fn << ": instruction counts differ";
    EXPECT_EQ(lo.atomics, o.atomics) << fn;
    EXPECT_EQ(lo.messages, o.messages) << fn;
    EXPECT_EQ(lo.bytesSent, o.bytesSent) << fn;
    EXPECT_EQ(lo.allocBytes, o.allocBytes) << fn;
    EXPECT_EQ(lo.buf.size(), o.buf.size());
    for (std::size_t i = 0; i < std::min(lo.buf.size(), o.buf.size()); ++i)
      EXPECT_EQ(lo.buf[i], o.buf[i]) << fn << ": buffer element " << i;
  }
  EXPECT_GT(lo.insts, 0u) << fn << ": instruction counter never advanced";
  return lo;
}

std::vector<interp::RtVal> noArgs(psim::Machine&, psim::RtPtr&) { return {}; }

/// Probe buffer of `n` doubles from a deterministic rng, plus the length.
std::function<std::vector<interp::RtVal>(psim::Machine&, psim::RtPtr&)>
bufArgs(int n, unsigned seed = 11) {
  return [n, seed](psim::Machine& m, psim::RtPtr& probe) {
    std::vector<double> init(static_cast<std::size_t>(n));
    Rng rng(seed);
    for (double& v : init) v = rng.uniform(-2, 2);
    probe = makeF64(m, init);
    return std::vector<interp::RtVal>{interp::RtVal::P(probe),
                                      interp::RtVal::I(n)};
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine equivalence on representative kernels.
// ---------------------------------------------------------------------------

TEST(ExecDiff, ScalarMathAndCalls) {
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "poly", {Type::F64}, Type::F64);
    auto x = b.param(0);
    b.ret(b.fadd(b.fmul(x, x), b.sin_(x)));
    b.finish();
  }
  {
    ir::FunctionBuilder b(mod, "main", {Type::PtrF64, Type::I64}, Type::F64);
    auto p = b.param(0), n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](ir::Value i) {
      auto v = b.call("poly", {b.load(p, i)});
      auto cur = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.fadd(cur, b.fdiv(v, b.pow_(v, b.constF(2)))));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  }
  ir::verify(mod);
  Outcome o = expectEnginesAgree(mod, "main", bufArgs(33), 1, 4, 0);
  EXPECT_TRUE(std::isfinite(o.ret.u.f));
}

TEST(ExecDiff, ForkWorkshareBarrier) {
  // Fig. 7 pattern: per-thread partials, barrier, combine on thread 0, with
  // thread-private SSA values crossing the barrier segments.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "minred", {Type::PtrF64, Type::I64}, Type::F64);
  auto data = b.param(0), n = b.param(1);
  auto nt = b.constI(6);
  auto partial = b.alloc(nt, Type::F64);
  auto result = b.alloc(b.constI(1), Type::F64);
  b.emitFork(nt, [&](ir::Value tid) {
    auto mine = b.imul(tid, b.constI(3));  // private value crossing segments
    b.store(partial, tid, b.constF(1e30));
    b.emitWorkshare(b.constI(0), n, [&](ir::Value i) {
      auto cur = b.load(partial, tid);
      b.store(partial, tid, b.fmin_(cur, b.load(data, i)));
    });
    b.barrier();
    b.store(partial, tid, b.fadd(b.load(partial, tid), b.itof(mine)));
    b.barrier();
    b.emitIf(b.ieq(tid, b.constI(0)), [&] {
      auto accp = b.alloc(b.constI(1), Type::F64);
      b.store(accp, b.constI(0), b.constF(0));
      b.emitFor(b.constI(0), nt, [&](ir::Value t) {
        auto cur = b.load(accp, b.constI(0));
        b.store(accp, b.constI(0), b.fadd(cur, b.load(partial, t)));
      });
      b.store(result, b.constI(0), b.load(accp, b.constI(0)));
    });
  });
  b.ret(b.load(result, b.constI(0)));
  b.finish();
  ir::verify(mod);
  expectEnginesAgree(mod, "minred", bufArgs(57), 1, 6, 0);
}

TEST(ExecDiff, ParallelForWithAtomics) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "accum", {Type::PtrF64, Type::I64}, Type::F64);
  auto p = b.param(0), n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitParallelFor(b.constI(0), n, [&](ir::Value i) {
    auto v = b.load(p, i);
    b.store(p, i, b.fmul(v, v));
    b.atomicAddF(acc, b.constI(0), v);
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  expectEnginesAgree(mod, "accum", bufArgs(100), 1, 8, 100);
}

TEST(ExecDiff, NestedParallelForRunsSerially) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "nest", {Type::PtrF64, Type::I64});
  auto p = b.param(0), n = b.param(1);
  b.emitFork(b.constI(4), [&](ir::Value tid) {
    b.emitParallelFor(b.constI(0), n, [&](ir::Value i) {
      b.atomicAddF(p, i, b.itof(tid));
    });
  });
  b.ret();
  b.finish();
  ir::verify(mod);
  expectEnginesAgree(mod, "nest", bufArgs(16), 1, 4, 16);
}

TEST(ExecDiff, SpawnSyncWhileYield) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "tasks", {Type::PtrF64, Type::I64}, Type::I64);
  auto p = b.param(0), n = b.param(1);
  auto t0 = b.spawn([&] {
    b.emitFor(b.constI(0), n, [&](ir::Value i) {
      b.store(p, i, b.fmul(b.load(p, i), b.constF(2)));
    });
  });
  auto t1 = b.spawn([&] { b.store(p, b.constI(0), b.constF(7)); });
  b.sync(t0);
  b.sync(t1);
  // While loop: halve n until <= 1, count iterations.
  auto cnt = b.alloc(b.constI(1), Type::I64);
  b.store(cnt, b.constI(0), b.constI(0));
  auto xp = b.alloc(b.constI(1), Type::I64);
  b.store(xp, b.constI(0), n);
  b.emitWhile([&](ir::Value) {
    auto x = b.idiv(b.load(xp, b.constI(0)), b.constI(2));
    b.store(xp, b.constI(0), x);
    auto c = b.load(cnt, b.constI(0));
    b.store(cnt, b.constI(0), b.iadd(c, b.constI(1)));
    return b.igt(x, b.constI(1));
  });
  b.ret(b.load(cnt, b.constI(0)));
  b.finish();
  ir::verify(mod);
  expectEnginesAgree(mod, "tasks", bufArgs(24), 1, 4, 24);
}

TEST(ExecDiff, MessagePassingAllreduce) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mp", {}, Type::F64);
  auto send = b.alloc(b.constI(1), Type::F64);
  auto recv = b.alloc(b.constI(1), Type::F64);
  auto r = b.mpRank();
  b.store(send, b.constI(0), b.itof(b.iadd(r, b.constI(1))));
  b.mpBarrier();
  b.mpAllreduce(send, recv, b.constI(1), ir::ReduceKind::Sum);
  b.ret(b.load(recv, b.constI(0)));
  b.finish();
  ir::verify(mod);
  Outcome o = expectEnginesAgree(mod, "mp", noArgs, 4, 2, 0);
  EXPECT_DOUBLE_EQ(o.ret.u.f, 1 + 2 + 3 + 4);
}

TEST(ExecDiff, JliteBoxedArraysAndGc) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "jl", {}, Type::F64);
  auto desc = b.jlAllocArray(b.constI(8));
  auto data = b.load(desc, b.constI(0));
  b.memset0(data, b.constI(8));
  b.store(data, b.constI(3), b.constF(42));
  auto tok = b.gcPreserveBegin({desc});
  auto v = b.load(b.ptrOffset(data, b.constI(1)), b.constI(2));
  b.gcPreserveEnd(tok);
  b.free_(desc);
  b.ret(v);
  b.finish();
  ir::verify(mod);
  Outcome o = expectEnginesAgree(mod, "jl", noArgs, 1, 4, 0);
  EXPECT_DOUBLE_EQ(o.ret.u.f, 42.0);
}

TEST(ExecDiff, GradientOfParallelKernelAgrees) {
  // End-to-end through AD: generate the gradient, then require both engines
  // to produce bit-identical adjoints and virtual clocks running it.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "obj", {Type::PtrF64, Type::I64}, Type::F64);
  auto p = b.param(0), n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitParallelFor(b.constI(0), n, [&](ir::Value i) {
    auto x = b.load(p, i);
    b.atomicAddF(acc, b.constI(0), b.fmul(b.sin_(x), x));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  core::GradConfig cfg;
  cfg.activeArg = {true, false};
  core::GradInfo gi = core::generateGradient(mod, "obj", cfg);

  auto gradArgs = [](psim::Machine& m, psim::RtPtr& probe) {
    std::vector<double> init(40);
    Rng rng(3);
    for (double& v : init) v = rng.uniform(-1, 1);
    psim::RtPtr x = makeF64(m, init);
    probe = makeF64(m, std::vector<double>(40, 0.0));
    return std::vector<interp::RtVal>{interp::RtVal::P(x), interp::RtVal::I(40),
                                      interp::RtVal::P(probe),
                                      interp::RtVal::F(1.0)};
  };
  Outcome o = expectEnginesAgree(mod, gi.name, gradArgs, 1, 8, 40);
  for (double g : o.buf) EXPECT_TRUE(std::isfinite(g));
}

// ---------------------------------------------------------------------------
// Every arithmetic handler of the exec engine: each fusable op unfused, as
// the first op of a fused pair and as the second, on edge inputs, bit for
// bit against the tree-walker.
// ---------------------------------------------------------------------------

namespace {

// Row k of the input table pairs edge k / kEdges of each list with edge
// k % kEdges, so the binary ops see every ordered pair.
constexpr int kEdges = 10;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr i64 kI64Min = std::numeric_limits<i64>::min();
constexpr i64 kI64Max = std::numeric_limits<i64>::max();
const double kFloatEdges[kEdges] = {
    std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, kInf, -kInf,
    std::numeric_limits<double>::denorm_min(), -2.5e-310, 1.5, -3.25, 1e300};
// Finite and inside the i64 range: ftoi of anything else is undefined.
const double kTruncEdges[kEdges] = {
    -0.0, std::numeric_limits<double>::denorm_min(), 0.999, -0.999, 2.5,
    -2.5, 123456789.75, 1e15, -1e18, 9.2e18};
// Small values on both sides of zero; their signs pick the i1 operands.
const i64 kSmallInts[kEdges] = {0,          1,          -1,          7,
                                -13,        65536,      -123457,     2147483647,
                                3037000499, -3037000499};
// Full-range values. iadd, isub and imul wrap on the pairs that overflow.
const i64 kBigInts[kEdges] = {kI64Min,
                              kI64Max,
                              kI64Min + 1,
                              (i64(1) << 53) + 1,
                              -(i64(1) << 53) - 1,
                              0,
                              1,
                              -1,
                              i64(1) << 62,
                              -7};

enum class Slot { Unfused, First, Second };

}  // namespace

TEST(ExecDiff, EveryArithmeticOpInEverySlot) {
  using ir::Op;
  constexpr i64 kRows = kEdges * kEdges;
  ir::Module mod;
  ir::FunctionBuilder b(
      mod, "arith",
      {Type::PtrF64, Type::PtrF64, Type::PtrF64, Type::PtrI64, Type::PtrI64,
       Type::PtrI64, Type::PtrI64, Type::PtrI64, Type::PtrF64, Type::PtrI64,
       Type::PtrF64, Type::PtrI64, Type::I64, Type::I64});
  auto outF = b.param(10), outI = b.param(11);
  auto widthF = b.param(12), widthI = b.param(13);
  std::vector<Op> tested;
  i64 nF = 0, nI = 0;  // output columns per row
  b.emitFor(b.constI(0), b.constI(kRows), [&](ir::Value k) {
    auto ld = [&](int param) { return b.load(b.param(param), k); };
    auto fa = ld(0), fb = ld(1), ft = ld(2), sa = ld(3), sb = ld(4),
         ga = ld(5), gb = ld(6), gd = ld(7), po = ld(9);
    auto c1 = b.ilt(sa, b.constI(0)), c2 = b.ilt(sb, b.constI(0));
    auto base = b.ptrOffset(b.param(8), b.constI(5));
    auto rowF = b.ptrOffset(outF, b.imul(k, widthF));
    auto rowI = b.ptrOffset(outI, b.imul(k, widthI));
    struct Case {
      Op op;
      std::vector<ir::Value> args;
      Type result;
    };
    const std::vector<Case> cases = {
        {Op::FAdd, {fa, fb}, Type::F64},    {Op::FSub, {fa, fb}, Type::F64},
        {Op::FMul, {fa, fb}, Type::F64},    {Op::FDiv, {fa, fb}, Type::F64},
        {Op::FNeg, {fa}, Type::F64},        {Op::Sqrt, {fa}, Type::F64},
        {Op::Sin, {fa}, Type::F64},         {Op::Cos, {fa}, Type::F64},
        {Op::Exp, {fa}, Type::F64},         {Op::Log, {fa}, Type::F64},
        {Op::Pow, {fa, fb}, Type::F64},     {Op::FAbs, {fa}, Type::F64},
        {Op::FMin, {fa, fb}, Type::F64},    {Op::FMax, {fa, fb}, Type::F64},
        {Op::Cbrt, {fa}, Type::F64},        {Op::IAdd, {ga, gb}, Type::I64},
        {Op::ISub, {ga, gb}, Type::I64},    {Op::IMul, {ga, gb}, Type::I64},
        {Op::IDiv, {ga, gd}, Type::I64},    {Op::IRem, {ga, gd}, Type::I64},
        {Op::IMinOp, {ga, gb}, Type::I64},  {Op::IMaxOp, {ga, gb}, Type::I64},
        {Op::ICmpEq, {ga, gb}, Type::I1},   {Op::ICmpNe, {ga, gb}, Type::I1},
        {Op::ICmpLt, {ga, gb}, Type::I1},   {Op::ICmpLe, {ga, gb}, Type::I1},
        {Op::ICmpGt, {ga, gb}, Type::I1},   {Op::ICmpGe, {ga, gb}, Type::I1},
        {Op::FCmpLt, {fa, fb}, Type::I1},   {Op::FCmpLe, {fa, fb}, Type::I1},
        {Op::FCmpGt, {fa, fb}, Type::I1},   {Op::FCmpGe, {fa, fb}, Type::I1},
        {Op::FCmpEq, {fa, fb}, Type::I1},   {Op::BAnd, {c1, c2}, Type::I1},
        {Op::BOr, {c1, c2}, Type::I1},      {Op::BNot, {c1}, Type::I1},
        {Op::Select, {c1, fa, fb}, Type::F64},
        {Op::IToF, {ga}, Type::F64},        {Op::FToI, {ft}, Type::I64},
        {Op::PtrOffset, {base, po}, Type::PtrF64},
    };
    // Each block starts after a non-fusable instruction (a load or a
    // store), and a load ends the op's pair, so the op lands in exactly the
    // slot asked for; the partner is an iadd.
    b.load(b.param(0), k);
    i64 colF = 0, colI = 0;
    for (const Case& c : cases) {
      tested.push_back(c.op);
      for (Slot slot : {Slot::Unfused, Slot::First, Slot::Second}) {
        if (slot == Slot::Second) b.iadd(k, k);
        ir::Value r = b.emitCloned(ir::Inst(c.op), c.args, c.result);
        if (slot == Slot::First) b.iadd(k, k);
        b.load(b.param(0), k);
        if (c.result == Type::F64) {
          b.store(rowF, b.constI(colF++), r);
        } else if (c.result == Type::PtrF64) {
          b.store(rowF, b.constI(colF++), b.load(r, b.constI(0)));
        } else if (c.result == Type::I64) {
          b.store(rowI, b.constI(colI++), r);
        } else {
          b.store(rowI, b.constI(colI++),
                  b.select(r, b.constI(1), b.constI(0)));
        }
      }
    }
    nF = colF;
    nI = colI;
  });
  b.finish();
  ir::verify(mod);
  // The table covers exactly the ops the lowerer pairs.
  std::sort(tested.begin(), tested.end());
  std::vector<Op> fusable;
  for (int i = 0; i < ir::kNumOps; ++i)
    if (interp::fusableOp(static_cast<Op>(i)))
      fusable.push_back(static_cast<Op>(i));
  ASSERT_EQ(tested, fusable);
  ASSERT_EQ(fusable.size(), 40u);

  // Each op occurs in each of the three slots of the lowered code.
  auto xm = interp::lower(mod, mod.get("arith"));
  const interp::ExecProgram& prog = xm->programs[0];
  auto has = [&](Op op, int op2) {
    for (const interp::ExecInst& in : prog.code)
      if (in.op == op && in.op2 == op2) return true;
    return false;
  };
  const int iadd = static_cast<int>(Op::IAdd);
  for (Op op : fusable) {
    SCOPED_TRACE(ir::traits(op).name);
    EXPECT_TRUE(has(op, -1)) << "unfused";
    EXPECT_TRUE(has(op, iadd)) << "first of a pair";
    EXPECT_TRUE(has(Op::IAdd, static_cast<int>(op))) << "second of a pair";
  }

  struct Run {
    double makespan = 0;
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> bitsF;
    std::vector<i64> valsI;
  };
  auto runOn = [&](const char* engine) {
    psim::Machine m;
    auto f64s = [&](auto pick) {
      std::vector<double> v(kRows);
      for (i64 k = 0; k < kRows; ++k)
        v[static_cast<std::size_t>(k)] = pick(k / kEdges, k % kEdges);
      return makeF64(m, v);
    };
    auto i64s = [&](auto pick) {
      psim::RtPtr p = m.mem().alloc(Type::I64, kRows, 0);
      for (i64 k = 0; k < kRows; ++k)
        m.mem().atI(p, k) = pick(k / kEdges, k % kEdges);
      return p;
    };
    std::vector<double> table(11);
    for (std::size_t t = 0; t < table.size(); ++t) table[t] = 0.5 + t;
    psim::RtPtr outFp = m.mem().alloc(Type::F64, kRows * nF, 0);
    psim::RtPtr outIp = m.mem().alloc(Type::I64, kRows * nI, 0);
    std::vector<interp::RtVal> args = {
        interp::RtVal::P(f64s([](i64 i, i64) { return kFloatEdges[i]; })),
        interp::RtVal::P(f64s([](i64, i64 j) { return kFloatEdges[j]; })),
        interp::RtVal::P(f64s([](i64, i64 j) { return kTruncEdges[j]; })),
        interp::RtVal::P(i64s([](i64 i, i64) { return kSmallInts[i]; })),
        interp::RtVal::P(i64s([](i64, i64 j) { return kSmallInts[j]; })),
        interp::RtVal::P(i64s([](i64 i, i64) { return kBigInts[i]; })),
        interp::RtVal::P(i64s([](i64, i64 j) { return kBigInts[j]; })),
        // Divisors: every edge but the two that trap (zero, and -1 under
        // INT64_MIN; see IntegerDivisionOverflowTraps).
        interp::RtVal::P(i64s([](i64 i, i64 j) {
          i64 d = kBigInts[j];
          return d == 0 || (d == -1 && kBigInts[i] == kI64Min) ? i64(3) : d;
        })),
        interp::RtVal::P(makeF64(m, table)),
        interp::RtVal::P(i64s([](i64 i, i64 j) { return (i + j) % 11 - 5; })),
        interp::RtVal::P(outFp),
        interp::RtVal::P(outIp),
        interp::RtVal::I(nF),
        interp::RtVal::I(nI)};
    Run r;
    r.makespan = m.run({1, 1}, [&](psim::RankEnv& env) {
      if (std::string_view(engine) == "cotape") {
        cotape::TapeInterpreter(mod, m).gradient(mod.get("arith"), args, env,
                                                 {}, {});
        return;
      }
      interp::Interpreter it(mod, m, engine);
      it.run(mod.get("arith"), args, env);
    });
    r.insts = m.stats().instsExecuted;
    for (i64 k = 0; k < kRows * nF; ++k) {
      double v = m.mem().atF(outFp, k);
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      r.bitsF.push_back(bits);
    }
    for (i64 k = 0; k < kRows * nI; ++k)
      r.valsI.push_back(m.mem().atI(outIp, k));
    return r;
  };
  const Run tree = runOn("tree");
  // iadd, isub and imul are the first i64 columns (each in its three
  // slots) and wrap in two's complement.
  for (i64 k = 0; k < kRows; ++k) {
    const auto a = static_cast<std::uint64_t>(kBigInts[k / kEdges]);
    const auto c = static_cast<std::uint64_t>(kBigInts[k % kEdges]);
    const std::uint64_t want[3] = {a + c, a - c, a * c};
    for (int col = 0; col < 9; ++col)
      ASSERT_EQ(static_cast<std::uint64_t>(
                    tree.valsI[static_cast<std::size_t>(k * nI + col)]),
                want[col / 3])
          << "row " << k << " column " << col;
  }
  // The taping interpreter's forward sweep computes the same values; it also
  // charges its tape writes, so only its clock and count differ.
  for (const char* eng : {"exec", "codegen", "cotape"}) {
    SCOPED_TRACE(eng);
    const Run o = runOn(eng);
    if (std::string_view(eng) != "cotape") {
      EXPECT_EQ(o.makespan, tree.makespan);
      EXPECT_EQ(o.insts, tree.insts);
    }
    ASSERT_EQ(o.bitsF.size(), tree.bitsF.size());
    for (std::size_t k = 0; k < tree.bitsF.size(); ++k)
      ASSERT_EQ(o.bitsF[k], tree.bitsF[k])
          << "f64 output " << k % nF << " of row " << k / nF;
    ASSERT_EQ(o.valsI, tree.valsI);
  }
}

TEST(ExecDiff, IntegerDivisionOverflowTraps) {
  // INT64_MIN / -1 does not fit in an i64, and x86 raises SIGFPE for both
  // the quotient and the remainder; every engine must throw instead, from
  // the unfused handler and from both slots of a fused pair, with the same
  // message as for a zero divisor's trap. So must the taping interpreter's
  // forward sweep (it returns no value, so only its traps are checked).
  auto run = [](const ir::Module& mod, psim::Machine& m, const char* e,
                i64 divisor) {
    interp::RtVal out{};
    m.run({1, 1}, [&](psim::RankEnv& env) {
      std::vector<interp::RtVal> args = {interp::RtVal::I(kI64Min),
                                         interp::RtVal::I(divisor)};
      if (std::string_view(e) == "cotape") {
        cotape::TapeInterpreter(mod, m).gradient(mod.get("div"), args, env,
                                                 {}, {});
        return;
      }
      interp::Interpreter it(mod, m, e);
      out = it.run(mod.get("div"), args, env);
    });
    return out;
  };
  for (ir::Op op : {ir::Op::IDiv, ir::Op::IRem}) {
    for (Slot slot : {Slot::Unfused, Slot::First, Slot::Second}) {
      ir::Module mod;
      ir::FunctionBuilder b(mod, "div", {Type::I64, Type::I64}, Type::I64);
      auto a = b.param(0), d = b.param(1);
      if (slot == Slot::Second) b.isub(d, d);
      auto q = b.emitCloned(ir::Inst(op), {a, d}, Type::I64);
      if (slot == Slot::First) b.isub(d, d);
      b.ret(q);
      b.finish();
      ir::verify(mod);
      const std::string what =
          op == ir::Op::IDiv ? "integer division" : "integer remainder";
      for (const char* e : {"exec", "tree", "codegen", "cotape"}) {
        SCOPED_TRACE(std::string(e) + " " + ir::traits(op).name + " slot " +
                     std::to_string(static_cast<int>(slot)));
        psim::Machine ok;
        interp::RtVal out = run(mod, ok, e, -2);
        if (std::string_view(e) != "cotape") {
          EXPECT_EQ(out.u.i, op == ir::Op::IDiv ? kI64Min / -2 : 0);
        }
        for (i64 divisor : {i64(-1), i64(0)}) {
          const std::string want =
              what + (divisor == 0 ? " by zero" : " overflow");
          psim::Machine m;
          try {
            run(mod, m, e, divisor);
            FAIL() << "expected " << want;
          } catch (const parad::Error& ex) {
            EXPECT_NE(std::string(ex.what()).find(want), std::string::npos)
                << ex.what();
          }
        }
      }
    }
  }
}

TEST(ExecDiff, MessageSendsRejectOutOfBoundsBuffers) {
  // A send buffer that starts before its object (or an allreduce with a
  // negative count) must fail the bounds check, not copy from before the
  // object's storage. The taping interpreter's forward sweep sends through
  // the same check.
  enum class Kind { Isend, Send, Allreduce, AllreduceNegativeCount };
  for (Kind kind : {Kind::Isend, Kind::Send, Kind::Allreduce,
                    Kind::AllreduceNegativeCount}) {
    ir::Module mod;
    ir::FunctionBuilder b(mod, "mp", {}, Type::F64);
    auto buf = b.alloc(b.constI(4), Type::F64);
    auto recv = b.alloc(b.constI(4), Type::F64);
    auto before = b.ptrOffset(buf, b.constI(-2));
    auto one = b.constI(1), tag = b.constI(7);
    auto isRoot = b.ieq(b.mpRank(), b.constI(0));
    switch (kind) {
      case Kind::Isend:
        b.emitIf(
            isRoot, [&] { b.mpWait(b.mpIsend(before, one, one, tag)); },
            [&] { b.mpRecv(recv, one, b.constI(0), tag); });
        break;
      case Kind::Send:
        b.emitIf(
            isRoot, [&] { b.mpSend(before, one, one, tag); },
            [&] { b.mpRecv(recv, one, b.constI(0), tag); });
        break;
      case Kind::Allreduce:
        b.mpAllreduce(before, recv, one, ir::ReduceKind::Sum);
        break;
      case Kind::AllreduceNegativeCount:
        b.mpAllreduce(buf, recv, b.constI(-1), ir::ReduceKind::Sum);
        break;
    }
    b.ret(b.load(recv, b.constI(0)));
    b.finish();
    ir::verify(mod);
    const char* want =
        kind == Kind::Isend  ? "isend buffer out of bounds"
        : kind == Kind::Send ? "send buffer out of bounds"
                             : "allreduce send buffer out of bounds";
    for (const char* e : {"exec", "tree", "codegen", "cotape"}) {
      SCOPED_TRACE(std::string(e) + " case " +
                   std::to_string(static_cast<int>(kind)));
      psim::Machine m;
      try {
        m.run({2, 1}, [&](psim::RankEnv& env) {
          if (std::string_view(e) == "cotape") {
            cotape::TapeInterpreter(mod, m).gradient(mod.get("mp"), {}, env,
                                                     {}, {});
            return;
          }
          interp::Interpreter it(mod, m, e);
          it.run(mod.get("mp"), {}, env);
        });
        FAIL() << "expected an out-of-bounds send buffer to be rejected";
      } catch (const parad::Error& ex) {
        EXPECT_NE(std::string(ex.what()).find(want), std::string::npos)
            << ex.what();
      }
    }
  }
}

TEST(ExecDiff, OutOfBoundsMemoryOpsFailAlike) {
  // Every engine runs memory ops through one bounds check: each bad access
  // fails with the same message and leaves the object as it was (a memset
  // that runs past its object writes nothing, not the elements before).
  enum class Kind { Memset, Atomic, Load, Store };
  struct Case {
    Kind kind;
    i64 at;  // the element offset of the access (memset: of its start)
  };
  const std::vector<double> init = {1, 2, 3, 4};
  for (Case c : {Case{Kind::Memset, 2}, Case{Kind::Memset, -1},
                 Case{Kind::Atomic, 4}, Case{Kind::Atomic, -1},
                 Case{Kind::Load, 4}, Case{Kind::Load, -1},
                 Case{Kind::Store, 4}, Case{Kind::Store, -1}}) {
    ir::Module mod;
    ir::FunctionBuilder b(mod, "bad", {Type::PtrF64}, Type::F64);
    auto buf = b.param(0);
    auto at = b.constI(c.at);
    ir::Value out = b.constF(0);
    switch (c.kind) {
      case Kind::Memset: b.memset0(b.ptrOffset(buf, at), b.constI(4)); break;
      case Kind::Atomic: b.atomicAddF(buf, at, b.constF(10)); break;
      case Kind::Load: out = b.load(buf, at); break;
      case Kind::Store: b.store(buf, at, b.constF(10)); break;
    }
    b.ret(out);
    b.finish();
    ir::verify(mod);
    std::string first;
    for (const char* e : kEngines) {
      SCOPED_TRACE(std::string(e) + " case " +
                   std::to_string(static_cast<int>(c.kind)) + " at " +
                   std::to_string(c.at));
      psim::Machine m;
      psim::RtPtr p = makeF64(m, init);
      try {
        m.run({1, 1}, [&](psim::RankEnv& env) {
          interp::Interpreter(mod, m, e).run(mod.get("bad"),
                                             {interp::RtVal::P(p)}, env);
        });
        ADD_FAILURE() << "expected an out-of-bounds access to fail";
      } catch (const parad::Error& ex) {
        std::string msg = ex.what();
        EXPECT_NE(msg.find("access out of bounds"), std::string::npos) << msg;
        if (first.empty()) first = msg;
        EXPECT_EQ(msg, first);
      }
      for (i64 k = 0; k < 4; ++k)
        EXPECT_EQ(m.mem().atF(p, k), init[static_cast<std::size_t>(k)])
            << "element " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy traps: lowering must not fail eagerly on unexecuted bad regions.
// ---------------------------------------------------------------------------

TEST(ExecTraps, OmpTrapIsLazy) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "maybeOmp", {Type::I64}, Type::F64);
  auto flag = b.param(0);
  auto out = b.alloc(b.constI(1), Type::F64);
  b.store(out, b.constI(0), b.constF(1));
  b.emitIf(b.ine(flag, b.constI(0)), [&] {
    b.emitOmpParallelFor(b.constI(0), b.constI(4), {},
                         [&](ir::Value, std::vector<ir::Value>) {});
  });
  b.ret(b.load(out, b.constI(0)));
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  // Untaken branch: runs fine under the lowered engine.
  EXPECT_DOUBLE_EQ(
      runSerial(mod, mod.get("maybeOmp"), m, {interp::RtVal::I(0)}).u.f, 1.0);
  // Taken branch: fails lazily with the reference engine's message.
  psim::Machine m2;
  try {
    runSerial(mod, mod.get("maybeOmp"), m2, {interp::RtVal::I(1)});
    FAIL() << "expected the omp trap to fire";
  } catch (const parad::Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "omp.parallel.for reached the interpreter"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExecTraps, UnknownCalleeTrapIsLazy) {
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "missing_fn", {Type::F64}, Type::F64);
    b.ret(b.param(0));
    b.finish();
  }
  ir::FunctionBuilder b(mod, "maybeCall", {Type::I64}, Type::F64);
  auto flag = b.param(0);
  auto out = b.alloc(b.constI(1), Type::F64);
  b.store(out, b.constI(0), b.constF(2));
  b.emitIf(b.ine(flag, b.constI(0)),
           [&] { b.call("missing_fn", {b.constF(1)}); });
  b.ret(b.load(out, b.constI(0)));
  b.finish();
  // Dangling callee is the point of the test: remove it after building.
  mod.functions.erase("missing_fn");
  psim::Machine m;
  EXPECT_DOUBLE_EQ(
      runSerial(mod, mod.get("maybeCall"), m, {interp::RtVal::I(0)}).u.f, 2.0);
  psim::Machine m2;
  try {
    runSerial(mod, mod.get("maybeCall"), m2, {interp::RtVal::I(1)});
    FAIL() << "expected the unknown-callee trap to fire";
  } catch (const parad::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no function named missing_fn"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Program cache: hits, explicit pass invalidation, fingerprint safety net.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Lowering stream optimizations: const folding + superinstruction pairing.
// ---------------------------------------------------------------------------

TEST(LowerFusion, AdjacentArithmeticSharesASlot) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  auto v = b.param(0);
  // Four arithmetic insts with folded consts interleaved; the consts leave
  // the stream and the arithmetic lowers to two fused pairs plus the return.
  auto t1 = b.fmul(v, b.constF(0.5));
  auto t2 = b.fadd(t1, b.constF(0.25));
  auto t3 = b.fsub(t2, v);
  auto t4 = b.fmul(t3, t3);
  b.ret(t4);
  b.finish();
  ir::verify(mod);

  auto xm = interp::lower(mod, mod.get("f"));
  const interp::ExecProgram& p = xm->programs[0];
  int fused = 0;
  for (const interp::ExecInst& in : p.code)
    if (in.op2 >= 0) ++fused;
  EXPECT_EQ(fused, 2);           // (fmul,fadd) and (fsub,fmul)
  EXPECT_EQ(p.code.size(), 3u);  // two pairs + return
  EXPECT_EQ(p.constInits.size(), 2u);
  // The const between the first pair's halves still counts as dispatched.
  EXPECT_EQ(p.code[0].consts2, 1);

  expectEnginesAgree(mod, "f", [](psim::Machine&, psim::RtPtr&) {
    return std::vector<interp::RtVal>{interp::RtVal::F(1.75)};
  });
}

TEST(ExecCache, SecondRunHits) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  b.ret(b.fmul(b.param(0), b.constF(3)));
  b.finish();
  ir::verify(mod);
  auto& cache = interp::ProgramCache::global();
  cache.clear();
  std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  // The cache only serves the lowered-program engines; pin exec so the
  // counters move even when the suite runs under PARAD_ENGINE=tree.
  auto runLowered = [&](psim::Machine& m) {
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "exec");
      it.run(mod.get("f"), {interp::RtVal::F(2)}, env);
    });
  };
  psim::Machine m;
  runLowered(m);
  EXPECT_EQ(cache.misses(), m0 + 1);
  psim::Machine m2;
  runLowered(m2);
  EXPECT_EQ(cache.hits(), h0 + 1);
  EXPECT_EQ(cache.misses(), m0 + 1);
}

TEST(ExecCache, InPlaceEditWithoutInvalidateRelowers) {
  // An edit that skips ProgramCache::invalidate() is caught by the hit's
  // fingerprint revalidation: the next run relowers and sees the new IR.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  b.ret(b.fmul(b.param(0), b.constF(3)));
  b.finish();
  auto& cache = interp::ProgramCache::global();
  auto runLowered = [&] {
    psim::Machine m;
    double out = 0;
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "exec");
      out = it.run(mod.get("f"), {interp::RtVal::F(2)}, env).u.f;
    });
    return out;
  };
  EXPECT_EQ(runLowered(), 6.0);
  std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  EXPECT_EQ(runLowered(), 6.0);
  EXPECT_EQ(cache.hits(), h0 + 1);
  for (ir::Inst& in : mod.get("f").body.insts)
    if (in.op == ir::Op::ConstF) in.fconst = 5;
  EXPECT_EQ(runLowered(), 10.0);
  EXPECT_EQ(cache.misses(), m0 + 1);
  EXPECT_EQ(runLowered(), 10.0);
  EXPECT_EQ(cache.hits(), h0 + 2);
  EXPECT_EQ(cache.misses(), m0 + 1);
}

TEST(ExecCache, PassRewriteBetweenRunsIsSafe) {
  // Regression for the old interpreter's defined-value cache, which was keyed
  // by Inst pointers and dangled when a pass reallocated instruction storage
  // between two runs of the same Interpreter. The lowered pipeline must
  // relower instead of reusing stale metadata.
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "scale", {Type::F64}, Type::F64);
    b.ret(b.fmul(b.param(0), b.constF(2)));
    b.finish();
  }
  {
    ir::FunctionBuilder b(mod, "mainf", {Type::PtrF64, Type::I64}, Type::F64);
    auto p = b.param(0), n = b.param(1);
    auto nt = b.constI(4);
    auto partial = b.alloc(nt, Type::F64);
    b.emitFork(nt, [&](ir::Value tid) {
      auto mine = b.call("scale", {b.itof(tid)});
      b.barrier();
      b.store(partial, tid, mine);
    });
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), nt, [&](ir::Value t) {
      auto cur = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.fadd(cur, b.load(partial, t)));
    });
    (void)p;
    (void)n;
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  }
  ir::verify(mod);
  psim::Machine m;
  interp::Interpreter it(mod, m);  // one facade across both runs
  interp::RtVal r1{}, r2{};
  auto buf = makeF64(m, {0});
  m.run({1, 4}, [&](psim::RankEnv& env) {
    r1 = it.run(mod.get("mainf"),
                {interp::RtVal::P(buf), interp::RtVal::I(1)}, env);
  });
  EXPECT_DOUBLE_EQ(r1.u.f, 2.0 * (0 + 1 + 2 + 3));

  // Reallocates every instruction of @mainf (the old dangling scenario) and
  // explicitly invalidates the cached program.
  passes::inlineCalls(mod, "mainf");
  m.run({1, 4}, [&](psim::RankEnv& env) {
    r2 = it.run(mod.get("mainf"),
                {interp::RtVal::P(buf), interp::RtVal::I(1)}, env);
  });
  EXPECT_DOUBLE_EQ(r2.u.f, r1.u.f);
}

namespace {

/// Eight ranks each scale their rank number through a callee and sum the
/// results with an allreduce: a multi-rank closure of two functions.
ir::Module buildRankSum() {
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "scale", {Type::F64}, Type::F64);
    b.ret(b.fmul(b.param(0), b.constF(2)));
    b.finish();
  }
  ir::FunctionBuilder b(mod, "ranksum", {Type::PtrF64, Type::PtrF64},
                        Type::F64);
  auto send = b.param(0), recv = b.param(1);
  auto zero = b.constI(0);
  b.store(send, zero, b.call("scale", {b.itof(b.mpRank())}));
  b.mpAllreduce(send, recv, b.constI(1), ir::ReduceKind::Sum, {});
  b.ret(b.load(recv, zero));
  b.finish();
  ir::verify(mod);
  return mod;
}

/// Runs @ranksum on `ranks` ranks of `m`; returns rank 0's result.
double runRankSum(const ir::Module& mod, psim::Machine& m,
                  std::string_view engine, int ranks = 8) {
  std::vector<psim::RtPtr> send, recv;
  for (int r = 0; r < ranks; ++r) {
    send.push_back(makeF64(m, {0}));
    recv.push_back(makeF64(m, {0}));
  }
  double out = 0;
  m.run({ranks, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m, engine);
    auto r = static_cast<std::size_t>(env.rank);
    interp::RtVal v = it.run(mod.get("ranksum"),
                             {interp::RtVal::P(send[r]),
                              interp::RtVal::P(recv[r])},
                             env);
    if (env.rank == 0) out = v.u.f;
  });
  return out;
}

/// Edits a function's first f64 constant in place, bypassing the passes
/// (and so any explicit cache invalidation).
void setFirstConstF(ir::Function& fn, double v) {
  for (ir::Inst& in : fn.body.insts)
    if (in.op == ir::Op::ConstF) {
      in.fconst = v;
      return;
    }
  FAIL() << "no ConstF in @" << fn.name;
}

std::uint64_t cacheLookups() {
  auto& cache = interp::ProgramCache::global();
  return cache.hits() + cache.misses();
}

}  // namespace

TEST(ExecCache, OneLookupPerRun) {
  // Every rank of a run executes the same closure, which cannot change while
  // the run lasts: the run looks it up and revalidates it once, not once per
  // rank — also when the same Machine runs again.
  ir::Module mod = buildRankSum();
  for (const char* e : {"exec", "codegen"}) {
    SCOPED_TRACE(e);
    psim::Machine m;
    for (int run = 0; run < 2; ++run) {
      std::uint64_t before = cacheLookups();
      EXPECT_EQ(runRankSum(mod, m, e), 2.0 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
      EXPECT_EQ(cacheLookups(), before + 1) << "run " << run;
    }
  }
}

TEST(ExecCache, PassRewriteBetweenMultiRankRunsIsSafe) {
  // The multi-rank form of PassRewriteBetweenRunsIsSafe: a closure validated
  // once for a whole run must not carry over into the next run on the same
  // Machine after the IR changed — neither after an in-place edit of a
  // callee (caught by the fingerprint) nor after a rewriting pass.
  const double sum = 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7;
  for (const char* e : {"exec", "codegen"}) {
    SCOPED_TRACE(e);
    ir::Module mod = buildRankSum();
    psim::Machine m;
    auto& cache = interp::ProgramCache::global();
    EXPECT_EQ(runRankSum(mod, m, e), 2.0 * sum);
    std::uint64_t misses = cache.misses();
    setFirstConstF(mod.get("scale"), 3);  // in place, no invalidation
    EXPECT_EQ(runRankSum(mod, m, e), 3.0 * sum);
    EXPECT_EQ(cache.misses(), misses + 1);
    passes::inlineCalls(mod, "ranksum");
    EXPECT_EQ(runRankSum(mod, m, e), 3.0 * sum);
    EXPECT_EQ(cache.misses(), misses + 2);
  }
}

TEST(ExecCache, DirectCallOutsideRunRevalidates) {
  // Interpreter::run with a hand-built RankEnv is not inside a Machine::run
  // (runId() is 0): nothing bounds how long the IR stays unchanged, so every
  // call looks the closure up and revalidates it.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  b.ret(b.fmul(b.param(0), b.constF(3)));
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  ASSERT_EQ(m.runId(), 0u);
  psim::RankEnv env;
  env.machine = &m;
  interp::Interpreter it(mod, m, "exec");
  auto& cache = interp::ProgramCache::global();
  std::uint64_t before = cacheLookups(), misses = cache.misses();
  EXPECT_EQ(it.run(mod.get("f"), {interp::RtVal::F(2)}, env).u.f, 6.0);
  EXPECT_EQ(it.run(mod.get("f"), {interp::RtVal::F(2)}, env).u.f, 6.0);
  EXPECT_EQ(cacheLookups(), before + 2);
  setFirstConstF(mod.get("f"), 5);  // in place, no invalidation
  EXPECT_EQ(it.run(mod.get("f"), {interp::RtVal::F(2)}, env).u.f, 10.0);
  EXPECT_EQ(cacheLookups(), before + 3);
  EXPECT_EQ(cache.misses(), misses + 2);
}

TEST(ExecCache, RunIdKeysTheClosureMemo) {
  // The per-run memo is keyed by the run id itself, not by the thread that
  // happens to carry the run: the same id on the same thread skips the
  // cache, a new id (a later run) goes back through it and its fingerprint
  // check, and id 0 (no run) never uses the memo.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::F64}, Type::F64);
  b.ret(b.fmul(b.param(0), b.constF(3)));
  b.finish();
  ir::verify(mod);
  const ir::Function& fn = mod.get("f");
  auto& cache = interp::ProgramCache::global();
  std::uint64_t before = cacheLookups(), misses = cache.misses();
  auto xa = interp::compileClosure(mod, fn, /*runId=*/~0ull);
  EXPECT_EQ(interp::compileClosure(mod, fn, ~0ull), xa);
  EXPECT_EQ(cacheLookups(), before + 1);
  setFirstConstF(mod.get("f"), 4);  // between two runs, in place
  auto xb = interp::compileClosure(mod, fn, ~0ull - 1);
  EXPECT_NE(xb, xa);
  EXPECT_EQ(cache.misses(), misses + 2);
  (void)interp::compileClosure(mod, fn, 0);
  (void)interp::compileClosure(mod, fn, 0);
  EXPECT_EQ(cacheLookups(), before + 4);
}

TEST(ExecCache, FingerprintCatchesInPlaceMutation) {
  // An IR mutation that bypasses the pass layer (no explicit invalidation)
  // must still be picked up via fingerprint revalidation on the next lookup.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "c", {}, Type::F64);
  b.ret(b.constF(5));
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  EXPECT_DOUBLE_EQ(runSerial(mod, mod.get("c"), m, {}).u.f, 5.0);
  mod.get("c").body.insts[0].fconst = 9;  // direct in-place edit
  psim::Machine m2;
  EXPECT_DOUBLE_EQ(runSerial(mod, mod.get("c"), m2, {}).u.f, 9.0);
}

// ---------------------------------------------------------------------------
// Machine-config knobs that used to be interpreter constants.
// ---------------------------------------------------------------------------

TEST(ExecConfig, MaxCallDepthConfigurable) {
  ir::Module mod;
  {
    // Placeholder so the self-recursive call below can resolve its return
    // type while "rec" is still being (re)built.
    ir::FunctionBuilder b(mod, "rec", {Type::I64}, Type::I64);
    b.ret(b.constI(0));
    b.finish();
  }
  ir::FunctionBuilder b(mod, "rec", {Type::I64}, Type::I64);
  auto n = b.param(0);
  auto out = b.alloc(b.constI(1), Type::I64);
  b.emitIf(
      b.igt(n, b.constI(0)),
      [&] {
        auto r = b.call("rec", {b.isub(n, b.constI(1))});
        b.store(out, b.constI(0), b.iadd(r, b.constI(1)));
      },
      [&] { b.store(out, b.constI(0), b.constI(0)); });
  b.ret(b.load(out, b.constI(0)));
  b.finish();
  ir::verify(mod);

  for (const char* e : kEngines) {
    SCOPED_TRACE(e);
    psim::Machine deep;  // default limit (512) admits depth 100
    psim::Machine shallow;
    shallow.config().maxCallDepth = 50;
    interp::RtVal out{};
    deep.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, deep, e);
      out = it.run(mod.get("rec"), {interp::RtVal::I(100)}, env);
    });
    EXPECT_EQ(out.u.i, 100);
    try {
      shallow.run({1, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, shallow, e);
        it.run(mod.get("rec"), {interp::RtVal::I(100)}, env);
      });
      FAIL() << "expected the call-depth limit to fire";
    } catch (const parad::Error& ex) {
      EXPECT_NE(std::string(ex.what()).find("call depth limit exceeded"),
                std::string::npos)
          << ex.what();
    }
  }
}

TEST(ExecConfig, TaskWorkersConfigurable) {
  // Eight independent heavy tasks: one virtual task worker serializes them,
  // eight overlap them; the makespans must reflect that, identically in both
  // engines.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "fan", {Type::PtrF64});
  auto p = b.param(0);
  std::vector<ir::Value> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back(b.spawn([&] {
      auto acc = b.alloc(b.constI(1), Type::F64);
      b.store(acc, b.constI(0), b.constF(1.0 + t));
      b.emitFor(b.constI(0), b.constI(200), [&](ir::Value) {
        auto v = b.load(acc, b.constI(0));
        b.store(acc, b.constI(0), b.sin_(b.fmul(v, v)));
      });
      b.store(p, b.constI(t), b.load(acc, b.constI(0)));
    }));
  }
  for (ir::Value t : tasks) b.sync(t);
  b.ret();
  b.finish();
  ir::verify(mod);

  auto timeWith = [&](int taskWorkers, std::string_view e) {
    psim::MachineConfig cfg;
    cfg.taskWorkers = taskWorkers;
    psim::Machine m(cfg);
    auto buf = makeF64(m, std::vector<double>(8, 0));
    return m.run({1, 4}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, e);
      it.run(mod.get("fan"), {interp::RtVal::P(buf)}, env);
    });
  };
  double serial = timeWith(1, "exec");
  double wide = timeWith(8, "exec");
  EXPECT_GT(serial, wide * 2);
  for (const char* e : {"tree", "codegen"}) {
    SCOPED_TRACE(e);
    EXPECT_EQ(serial, timeWith(1, e));
    EXPECT_EQ(wide, timeWith(8, e));
  }
}
