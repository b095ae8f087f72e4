// Forward (tangent) mode: directional derivatives through serial, parallel
// and message-passing code; consistency with the reverse mode
// (forward-over-seed dot products must equal reverse-gradient dot products).
#include <gtest/gtest.h>

#include "src/core/forward.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;
using ir::Value;

namespace {

// Canonical f(x: ptr, n) -> f64 with a parallel loop and special functions.
ir::Module testFn() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto u = b.alloc(n, Type::F64);
  b.emitParallelFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.store(u, i, b.fadd(b.fmul(b.sin_(v), v), b.fdiv(b.exp_(v), b.fadd(v, b.constF(2)))));
  });
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, b.load(u, i)));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  return mod;
}

// f(x: ptr, n) -> f64 using every op with a derivative rule, and select:
// pow has both operands active and a positive base (x in [0.3, 1.5]). The
// loops are serial, so cotape can differentiate it too.
ir::Module everyRuledOpFn() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto u = b.alloc(n, Type::F64);
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    auto w = b.load(x, b.isub(b.isub(n, b.constI(1)), i));
    auto t = b.fadd(b.pow_(v, w), b.cbrt_(b.fmul(v, w)));
    t = b.fsub(t, b.fdiv(b.log_(v), b.sqrt_(w)));
    t = b.fadd(t, b.fmul(b.fmin_(v, w), b.fmax_(b.sin_(v), b.cos_(w))));
    t = b.fadd(t, b.fneg(b.fabs_(b.fsub(v, b.exp_(w)))));
    t = b.fadd(t, b.select(b.flt(v, w), b.fmul(v, v), w));
    b.store(u, i, t);
  });
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, b.load(u, i)));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  return mod;
}

// Runs fwd_f with tangent seed dx; returns the directional derivative.
double fwdDeriv(ir::Module& mod, const core::FwdInfo& fi,
                const std::vector<double>& x, const std::vector<double>& dx,
                int threads = 4) {
  psim::Machine m;
  auto p = makeF64(m, x);
  auto dp = makeF64(m, dx);
  auto out = runSerial(mod, mod.get(fi.name), m,
                       {interp::RtVal::P(p), interp::RtVal::I((i64)x.size()),
                        interp::RtVal::P(dp)},
                       threads);
  return out.u.f;
}

}  // namespace

TEST(AdForward, DirectionalDerivativeMatchesFD) {
  ir::Module mod = testFn();
  core::FwdConfig cfg;
  cfg.activeArg = {true, false};
  auto fi = core::generateForward(mod, "f", cfg);

  Rng rng(51);
  std::vector<double> x(10), dir(10);
  for (auto& v : x) v = rng.uniform(0.3, 1.5);
  for (auto& v : dir) v = rng.uniform(-1, 1);

  double ad = fwdDeriv(mod, fi, x, dir);
  const double h = 1e-6;
  std::vector<double> xp = x, xm = x;
  for (std::size_t k = 0; k < x.size(); ++k) {
    xp[k] += h * dir[k];
    xm[k] -= h * dir[k];
  }
  double fd = (evalScalarFn(mod, "f", xp) - evalScalarFn(mod, "f", xm)) / (2 * h);
  EXPECT_NEAR(ad, fd, 1e-5 * std::max(1.0, std::abs(fd)));
}

TEST(AdForward, AgreesWithReverseMode) {
  // <ybar, J xdot> from forward must equal <J^T ybar, xdot> from reverse at
  // a random xdot, and cotape's J^T ybar must be reverse's (cotape runs
  // serial code only).
  for (int prog = 0; prog < 2; ++prog) {
    SCOPED_TRACE(prog == 0 ? "sin/exp program" : "every ruled op");
    ir::Module mod = prog == 0 ? testFn() : everyRuledOpFn();
    core::FwdConfig fcfg;
    fcfg.activeArg = {true, false};
    auto fi = core::generateForward(mod, "f", fcfg);

    Rng rng(52);
    std::vector<double> x(12), dir(12);
    for (auto& v : x) v = rng.uniform(0.3, 1.5);
    for (auto& v : dir) v = rng.uniform(-1, 1);
    double ybar = rng.uniform(0.5, 2);

    auto grad = adGradScalarFn(mod, "f", x, {}, 4, ybar);
    double dot = 0;
    for (std::size_t k = 0; k < x.size(); ++k) dot += grad[k] * dir[k];
    double fwd = ybar * fwdDeriv(mod, fi, x, dir);
    EXPECT_NEAR(fwd, dot, 1e-9 * std::max(1.0, std::abs(dot)));

    if (prog == 0) continue;
    auto tape = cotapeGradScalarFn(mod, "f", x, nullptr, nullptr, ybar);
    for (std::size_t k = 0; k < x.size(); ++k)
      EXPECT_NEAR(tape[k], grad[k], 1e-12 * std::max(1.0, std::abs(grad[k])))
          << "component " << k;
  }
}

TEST(AdForward, ForkWorkshareAndTasks) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto xp = b.param(0);
  auto n = b.param(1);
  auto u = b.alloc(n, Type::F64);
  b.emitFork(b.constI(0), [&](Value) {
    b.emitWorkshare(b.constI(0), n, [&](Value i) {
      auto v = b.load(xp, i);
      b.store(u, i, b.fmul(v, b.fmul(v, v)));
    });
  });
  auto part = b.alloc(b.constI(1), Type::F64);
  b.memset0(part, b.constI(1));
  auto t0 = b.spawn([&] {
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto cur = b.load(part, b.constI(0));
      b.store(part, b.constI(0), b.fadd(cur, b.load(u, i)));
    });
  });
  b.sync(t0);
  b.ret(b.load(part, b.constI(0)));
  b.finish();
  ir::verify(mod);

  core::FwdConfig cfg;
  cfg.activeArg = {true, false};
  auto fi = core::generateForward(mod, "f", cfg);
  std::vector<double> x{0.5, 1.2, 0.8, 1.6};
  std::vector<double> e(4, 0.0);
  for (std::size_t k = 0; k < 4; ++k) {
    e.assign(4, 0.0);
    e[k] = 1.0;
    double d = fwdDeriv(mod, fi, x, e);
    EXPECT_NEAR(d, 3 * x[k] * x[k], 1e-10) << "component " << k;
  }
}

TEST(AdForward, MessagePassingTangentsFollowData) {
  // Ring shift of squares across 3 ranks; tangent of out must follow the
  // communication exactly (shadow transfers duplicated).
  const int R = 3;
  const i64 N = 2;
  ir::Module mod;
  ir::FunctionBuilder b(mod, "spmd", {Type::PtrF64, Type::I64, Type::PtrF64});
  auto x = b.param(0);
  auto n = b.param(1);
  auto out = b.param(2);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto right = b.irem(b.iadd(rank, b.constI(1)), size);
  auto left = b.irem(b.iadd(b.isub(rank, b.constI(1)), size), size);
  auto send = b.alloc(n, Type::F64);
  auto recv = b.alloc(n, Type::F64);
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.store(send, i, b.fmul(v, v));
  });
  auto rr = b.mpIrecv(recv, n, left, b.constI(4));
  auto sr = b.mpIsend(send, n, right, b.constI(4));
  b.mpWait(rr);
  b.mpWait(sr);
  b.emitFor(b.constI(0), n, [&](Value i) { b.store(out, i, b.load(recv, i)); });
  b.ret();
  b.finish();
  ir::verify(mod);

  core::FwdConfig cfg;
  cfg.activeArg = {true, false, true};
  auto fi = core::generateForward(mod, "spmd", cfg);

  psim::Machine m;
  std::vector<psim::RtPtr> xs(R), dxs(R), os(R), dos(R);
  Rng rng(53);
  std::vector<double> xg((std::size_t)(R * N)), dg((std::size_t)(R * N));
  for (auto& v : xg) v = rng.uniform(0.5, 1.5);
  for (auto& v : dg) v = rng.uniform(-1, 1);
  for (int r = 0; r < R; ++r) {
    xs[(std::size_t)r] = makeF64(
        m, std::vector<double>(xg.begin() + r * N, xg.begin() + (r + 1) * N));
    dxs[(std::size_t)r] = makeF64(
        m, std::vector<double>(dg.begin() + r * N, dg.begin() + (r + 1) * N));
    os[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
    dos[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    int r = env.rank;
    it.run(mod.get(fi.name),
           {interp::RtVal::P(xs[(std::size_t)r]), interp::RtVal::I(N),
            interp::RtVal::P(os[(std::size_t)r]),
            interp::RtVal::P(dxs[(std::size_t)r]),
            interp::RtVal::P(dos[(std::size_t)r])},
           env);
  });
  for (int r = 0; r < R; ++r) {
    int l = (r + R - 1) % R;
    for (i64 k = 0; k < N; ++k) {
      double xv = xg[(std::size_t)(l * N + k)];
      double dv = dg[(std::size_t)(l * N + k)];
      EXPECT_NEAR(m.mem().atF(os[(std::size_t)r], k), xv * xv, 1e-12);
      EXPECT_NEAR(m.mem().atF(dos[(std::size_t)r], k), 2 * xv * dv, 1e-12);
    }
  }
}
