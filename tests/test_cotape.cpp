// The cotape baseline (CoDiPack + adjoint-MP stand-in): correctness against
// the Enzyme-style engine and finite differences, the characteristic serial
// overhead, and the lack of shared-memory support.
#include <gtest/gtest.h>

#include "src/cotape/cotape.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;
using ir::Value;

namespace {

ir::Module serialTestFn() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    auto t = b.fadd(b.fmul(b.sin_(v), v), b.fdiv(b.exp_(v), b.fadd(v, b.constF(2))));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, t));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  return mod;
}

}  // namespace

TEST(Cotape, MatchesEnzymeStyleGradient) {
  ir::Module mod = serialTestFn();
  Rng rng(31);
  std::vector<double> x(12);
  for (auto& v : x) v = rng.uniform(0.3, 1.4);
  auto gTape = cotapeGradScalarFn(mod, "f", x);
  auto gAd = adGradScalarFn(mod, "f", x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(gTape[i], gAd[i], 1e-11) << "component " << i;
}

TEST(Cotape, MatchesFiniteDifferences) {
  ir::Module mod = serialTestFn();
  std::vector<double> x{0.5, 1.1, 0.9};
  auto gTape = cotapeGradScalarFn(mod, "f", x);
  auto fd = fdGradScalarFn(mod, "f", x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(gTape[i], fd[i], 1e-5 * std::max(1.0, std::abs(fd[i])));
}

TEST(Cotape, ControlFlowAndMinMax) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.emitIf(
        b.flt(v, b.constF(1.0)),
        [&] {
          auto cur = b.load(acc, b.constI(0));
          b.store(acc, b.constI(0), b.fadd(cur, b.fmin_(v, b.fmul(v, v))));
        },
        [&] {
          auto cur = b.load(acc, b.constI(0));
          b.store(acc, b.constI(0), b.fadd(cur, b.fabs_(b.fsub(v, b.constF(2)))));
        });
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  Rng rng(37);
  std::vector<double> x0(10);
  for (auto& v : x0) v = rng.uniform(0.2, 1.8);
  auto gTape = cotapeGradScalarFn(mod, "f", x0);
  auto gAd = adGradScalarFn(mod, "f", x0);
  for (std::size_t i = 0; i < x0.size(); ++i)
    EXPECT_NEAR(gTape[i], gAd[i], 1e-11);
}

TEST(Cotape, HighSerialOverheadAndTapeMemory) {
  // cotape's gradient/forward overhead must exceed the Enzyme-style engine's
  // on the same serial code (§VIII: "CoDiPack has a large gradient overhead
  // for serial instructions"), and the tape must consume memory.
  ir::Module mod = serialTestFn();
  std::vector<double> x(4096, 0.7);

  // Plain primal time (no taping).
  psim::Machine m0;
  auto p0 = makeF64(m0, x);
  double tPrimal = m0.run({1, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m0);
    it.run(mod.get("f"), {interp::RtVal::P(p0), interp::RtVal::I((i64)x.size())},
           env);
  });

  double tTape = 0;
  std::uint64_t tapeBytes = 0;
  cotapeGradScalarFn(mod, "f", x, &tTape, &tapeBytes);
  double cotapeOverhead = tTape / tPrimal;
  EXPECT_GT(cotapeOverhead, 2.5);
  EXPECT_GT(tapeBytes, x.size() * sizeof(double));

  // Enzyme-style gradient time on the same machine model.
  core::GradConfig cfg;
  cfg.activeArg = {true, false};
  auto gi = core::generateGradient(mod, "f", cfg);
  psim::Machine m1;
  auto p1 = makeF64(m1, x);
  auto dp1 = makeF64(m1, std::vector<double>(x.size(), 0));
  double tAd = m1.run({1, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m1);
    it.run(mod.get(gi.name),
           {interp::RtVal::P(p1), interp::RtVal::I((i64)x.size()),
            interp::RtVal::P(dp1), interp::RtVal::F(1.0)},
           env);
  });
  double adOverhead = tAd / tPrimal;
  EXPECT_LT(adOverhead, cotapeOverhead);
}

TEST(Cotape, AdjointMessagePassing) {
  // Two ranks exchange squared slices (nonblocking) and multiply; cotape's
  // adjoint-MP layer must reverse the communication correctly.
  const int R = 2;
  const i64 N = 4;
  ir::Module mod;
  ir::FunctionBuilder b(mod, "spmd", {Type::PtrF64, Type::I64, Type::PtrF64});
  auto x = b.param(0);
  auto n = b.param(1);
  auto out = b.param(2);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto peer = b.isub(b.isub(size, b.constI(1)), rank);
  auto send = b.alloc(n, Type::F64);
  auto recv = b.alloc(n, Type::F64);
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.store(send, i, b.fmul(v, v));
  });
  auto rr = b.mpIrecv(recv, n, peer, b.constI(9));
  auto sr = b.mpIsend(send, n, peer, b.constI(9));
  b.mpWait(rr);
  b.mpWait(sr);
  b.emitFor(b.constI(0), n, [&](Value i) {
    b.store(out, i, b.fmul(b.load(recv, i), b.load(x, i)));
  });
  b.ret();
  b.finish();
  ir::verify(mod);

  Rng rng(41);
  std::vector<double> xg((std::size_t)(R * N));
  for (auto& v : xg) v = rng.uniform(0.4, 1.6);

  psim::Machine m;
  std::vector<psim::RtPtr> xs(R), os(R), dxs(R), dos(R);
  for (int r = 0; r < R; ++r) {
    std::vector<double> slice(xg.begin() + r * N, xg.begin() + (r + 1) * N);
    xs[(std::size_t)r] = makeF64(m, slice);
    os[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
    dxs[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
    dos[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 1));
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    cotape::TapeInterpreter tape(mod, m);
    int r = env.rank;
    tape.gradient(mod.get("spmd"),
                  {interp::RtVal::P(xs[(std::size_t)r]), interp::RtVal::I(N),
                   interp::RtVal::P(os[(std::size_t)r])},
                  env, {{xs[(std::size_t)r], dxs[(std::size_t)r], N}},
                  {{os[(std::size_t)r], dos[(std::size_t)r], N}});
  });
  // out_{r,k} = x_{peer,k}^2 * x_{r,k}; objective = sum over ranks, so
  // d/dx_{r,k} = x_{peer,k}^2 (own out) + 2 x_{r,k} * x_{peer,k} (peer's).
  for (int r = 0; r < R; ++r) {
    int peerR = R - 1 - r;
    for (i64 k = 0; k < N; ++k) {
      double xr = xg[(std::size_t)(r * N + k)];
      double xp = xg[(std::size_t)(peerR * N + k)];
      EXPECT_NEAR(m.mem().atF(dxs[(std::size_t)r], k), xp * xp + 2 * xr * xp,
                  1e-10)
          << "rank " << r << " elem " << k;
    }
  }
}

TEST(Cotape, RejectsSharedMemoryParallelism) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto u = b.alloc(n, Type::F64);
  b.emitParallelFor(b.constI(0), n, [&](Value i) {
    b.store(u, i, b.load(x, i));
  });
  b.ret(b.load(u, b.constI(0)));
  b.finish();
  psim::Machine m;
  auto p = makeF64(m, {1, 2, 3});
  auto dp = makeF64(m, {0, 0, 0});
  EXPECT_THROW(
      m.run({1, 1},
            [&](psim::RankEnv& env) {
              cotape::TapeInterpreter tape(mod, m);
              tape.gradient(mod.get("f"),
                            {interp::RtVal::P(p), interp::RtVal::I(3)}, env,
                            {{p, dp, 3}}, {{p, dp, 3}});
            }),
      parad::Error);
}
