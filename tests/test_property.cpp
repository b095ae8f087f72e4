// Property-based sweeps (parameterized gtest): randomized straight-line /
// loop / parallel kernels generated from a seed, checked for
//   * gradient == finite differences,
//   * forward-mode / reverse-mode consistency,
//   * thread-count and schedule invariance of values and gradients,
//   * determinism of the virtual machine.
#include <gtest/gtest.h>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/minibude/minibude.h"
#include "src/core/forward.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;
using ir::Value;

namespace {

// Generates a random differentiable kernel f(x, n) -> f64 from a seed.
// Shape: a parallel elementwise map with a random expression tree per
// element (depth-bounded), a random second pass mixing neighbours, and a
// serial reduction. Expressions are built to stay numerically tame on
// inputs in [0.3, 1.6].
class KernelGen {
 public:
  KernelGen(ir::FunctionBuilder& b, Rng& rng) : b_(b), rng_(rng) {}

  Value expr(Value v, Value w, int depth) {
    if (depth == 0) return rng_.below(2) ? v : w;
    switch (rng_.below(8)) {
      case 0: return b_.fadd(expr(v, w, depth - 1), expr(v, w, depth - 1));
      case 1: return b_.fsub(expr(v, w, depth - 1), expr(v, w, depth - 1));
      case 2: return b_.fmul(expr(v, w, depth - 1), expr(v, w, depth - 1));
      case 3:
        return b_.fdiv(expr(v, w, depth - 1),
                       b_.fadd(b_.fabs_(expr(v, w, depth - 1)), b_.constF(1.5)));
      case 4: return b_.sin_(expr(v, w, depth - 1));
      case 5: return b_.exp_(b_.fmul(b_.constF(0.3), expr(v, w, depth - 1)));
      case 6:
        return b_.sqrt_(b_.fadd(b_.fabs_(expr(v, w, depth - 1)), b_.constF(0.5)));
      default:
        return b_.fmin_(expr(v, w, depth - 1),
                        b_.fmax_(expr(v, w, depth - 1), b_.constF(0.25)));
    }
  }

 private:
  ir::FunctionBuilder& b_;
  Rng& rng_;
};

ir::Module randomKernel(unsigned seed, bool parallel) {
  Rng rng(seed);
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  KernelGen gen(b, rng);
  auto u = b.alloc(n, Type::F64);
  auto mapBody = [&](Value i) {
    auto v = b.load(x, i);
    auto w = b.load(x, b.irem(b.iadd(i, b.constI(1)), n));
    b.store(u, i, gen.expr(v, w, 3));
  };
  if (parallel)
    b.emitParallelFor(b.constI(0), n, mapBody);
  else
    b.emitFor(b.constI(0), n, mapBody);
  // Second pass: neighbour mixing over the (written) scratch array, which
  // forces reverse-pass caching.
  auto w2 = b.alloc(n, Type::F64);
  auto mixBody = [&](Value i) {
    auto a = b.load(u, i);
    auto c = b.load(u, b.irem(b.iadd(i, b.constI(2)), n));
    b.store(w2, i, gen.expr(a, c, 2));
  };
  if (parallel)
    b.emitParallelFor(b.constI(0), n, mixBody);
  else
    b.emitFor(b.constI(0), n, mixBody);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, b.load(w2, i)));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  ir::verify(mod);
  return mod;
}

std::vector<double> input(unsigned seed, std::size_t n) {
  Rng rng(seed * 7919 + 13);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(0.3, 1.6);
  return x;
}

}  // namespace

class RandomKernelP : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomKernelP, GradientMatchesFiniteDifferences) {
  unsigned seed = GetParam();
  ir::Module mod = randomKernel(seed, /*parallel=*/true);
  auto x = input(seed, 9);
  // Random min/max kernels have kinks; use a slightly loose tolerance and a
  // projection check in addition to per-component comparison.
  auto ad = adGradScalarFn(mod, "f", x, {}, 4);
  auto fd = fdGradScalarFn(mod, "f", x, 1e-6, 4);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(ad[i], fd[i], 2e-4 * std::max(1.0, std::abs(fd[i])))
        << "seed " << seed << " component " << i;
}

TEST_P(RandomKernelP, ForwardAndReverseAgree) {
  unsigned seed = GetParam();
  ir::Module mod = randomKernel(seed, /*parallel=*/true);
  core::FwdConfig fcfg;
  fcfg.activeArg = {true, false};
  auto fi = core::generateForward(mod, "f", fcfg);
  auto x = input(seed, 8);
  Rng rng(seed + 1000);
  std::vector<double> dir(x.size());
  for (auto& v : dir) v = rng.uniform(-1, 1);

  auto grad = adGradScalarFn(mod, "f", x, {}, 4);
  double dot = 0;
  for (std::size_t k = 0; k < x.size(); ++k) dot += grad[k] * dir[k];

  psim::Machine m;
  auto p = makeF64(m, x);
  auto dp = makeF64(m, dir);
  auto out = runSerial(mod, mod.get(fi.name), m,
                       {interp::RtVal::P(p), interp::RtVal::I((i64)x.size()),
                        interp::RtVal::P(dp)},
                       4);
  EXPECT_NEAR(out.u.f, dot, 1e-8 * std::max(1.0, std::abs(dot)))
      << "seed " << seed;
}

TEST_P(RandomKernelP, ParallelAndSerialVariantsAgree) {
  unsigned seed = GetParam();
  ir::Module par = randomKernel(seed, true);
  ir::Module ser = randomKernel(seed, false);
  auto x = input(seed, 11);
  EXPECT_DOUBLE_EQ(evalScalarFn(par, "f", x, 8), evalScalarFn(ser, "f", x, 8))
      << "seed " << seed;
  auto gp = adGradScalarFn(par, "f", x, {}, 8);
  auto gs = adGradScalarFn(ser, "f", x, {}, 1);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(gp[i], gs[i], 1e-10 * std::max(1.0, std::abs(gs[i])))
        << "seed " << seed << " component " << i;
}

TEST_P(RandomKernelP, GradientIsThreadCountInvariant) {
  unsigned seed = GetParam();
  ir::Module mod = randomKernel(seed, true);
  auto x = input(seed, 13);
  auto g1 = adGradScalarFn(mod, "f", x, {}, 1);
  auto g3 = adGradScalarFn(mod, "f", x, {}, 3);
  auto g16 = adGradScalarFn(mod, "f", x, {}, 16);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(g1[i], g3[i]) << "seed " << seed;
    EXPECT_DOUBLE_EQ(g1[i], g16[i]) << "seed " << seed;
  }
}

TEST_P(RandomKernelP, VirtualMachineIsDeterministic) {
  unsigned seed = GetParam();
  ir::Module mod = randomKernel(seed, true);
  auto x = input(seed, 10);
  auto run = [&] {
    psim::Machine m;
    auto p = makeF64(m, x);
    double t = 0, val = 0;
    t = m.run({1, 5}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      val = it.run(mod.get("f"),
                   {interp::RtVal::P(p), interp::RtVal::I((i64)x.size())}, env)
                .u.f;
    });
    return std::make_pair(t, val);
  };
  auto a = run();
  auto b2 = run();
  EXPECT_EQ(a.first, b2.first) << "seed " << seed;
  EXPECT_EQ(a.second, b2.second) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// ---------------------------------------------------------------------------
// Rank-count sweep for the message-passing allreduce gradient.
// ---------------------------------------------------------------------------

class AllreduceRanksP : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceRanksP, SumGradientAcrossRanks) {
  int R = GetParam();
  const i64 N = 3;
  ir::Module mod;
  ir::FunctionBuilder b(mod, "spmd", {Type::PtrF64, Type::I64, Type::PtrF64});
  auto x = b.param(0);
  auto n = b.param(1);
  auto out = b.param(2);
  auto send = b.alloc(n, Type::F64);
  auto recv = b.alloc(n, Type::F64);
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.load(x, i);
    b.store(send, i, b.fmul(v, v));
  });
  b.mpAllreduce(send, recv, n, ir::ReduceKind::Sum);
  b.emitFor(b.constI(0), n, [&](Value i) { b.store(out, i, b.load(recv, i)); });
  b.ret();
  b.finish();
  core::GradConfig cfg;
  cfg.activeArg = {true, false, true};
  auto gi = core::generateGradient(mod, "spmd", cfg);

  psim::Machine m;
  std::vector<psim::RtPtr> xs((std::size_t)R), dxs((std::size_t)R),
      os((std::size_t)R), dos((std::size_t)R);
  Rng rng(60 + (unsigned)R);
  std::vector<double> xg((std::size_t)(R * N));
  for (auto& v : xg) v = rng.uniform(0.4, 1.4);
  for (int r = 0; r < R; ++r) {
    xs[(std::size_t)r] = makeF64(
        m, std::vector<double>(xg.begin() + r * N, xg.begin() + (r + 1) * N));
    dxs[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
    os[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 0));
    dos[(std::size_t)r] = makeF64(m, std::vector<double>((std::size_t)N, 1));
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    int r = env.rank;
    it.run(mod.get(gi.name),
           {interp::RtVal::P(xs[(std::size_t)r]), interp::RtVal::I(N),
            interp::RtVal::P(os[(std::size_t)r]),
            interp::RtVal::P(dxs[(std::size_t)r]),
            interp::RtVal::P(dos[(std::size_t)r])},
           env);
  });
  // objective = sum over ranks, elems of recv = R * sum_r x_{r,k}^2 summed;
  // d/dx_{r,k} = 2 x_{r,k} * R (each rank's out includes the global sum).
  for (int r = 0; r < R; ++r)
    for (i64 k = 0; k < N; ++k)
      EXPECT_NEAR(m.mem().atF(dxs[(std::size_t)r], k),
                  2 * xg[(std::size_t)(r * N + k)] * R, 1e-10)
          << "ranks " << R;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceRanksP,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

// ---------------------------------------------------------------------------
// Engine-equivalence and schedule-independence sweep over the paper apps
// (DESIGN.md §9, §13): the lowered executor, the native codegen backend and
// the tree-walking reference engine must agree bit for bit on objectives,
// gradients, RunStats and virtual makespans, and values/gradients must not
// depend on the thread count.
// ---------------------------------------------------------------------------

namespace {

struct EngineGuard {
  std::string saved;
  explicit EngineGuard(std::string_view e) : saved(interp::defaultEngine()) {
    interp::setDefaultEngine(e);
  }
  ~EngineGuard() { interp::setDefaultEngine(saved); }
};

template <typename RR>
void expectBitIdentical(const RR& a, const RR& b, const char* what) {
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.stats.instsExecuted, b.stats.instsExecuted) << what;
  EXPECT_EQ(a.stats.atomicOps, b.stats.atomicOps) << what;
  EXPECT_EQ(a.stats.messages, b.stats.messages) << what;
}

void expectSameVec(const std::vector<double>& a, const std::vector<double>& b,
                   const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << " element " << i;
}

/// Near-equality for the thread-count sweep: per-thread reduction slots
/// reassociate sums, so values may differ in the final ulps across schedules
/// (engine equivalence at a fixed schedule stays bit-exact).
void expectNearVec(const std::vector<double>& a, const std::vector<double>& b,
                   const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], 1e-10 * std::max(1.0, std::abs(b[i])))
        << what << " element " << i;
}

}  // namespace

struct LuleshVariant {
  const char* name;
  apps::lulesh::Config::Par par;
  bool mp;
  bool jlite;
};

// Print a variant by name: gtest's default byte dump would put the string
// pointer (an ASLR-dependent address) into the listed test name.
void PrintTo(const LuleshVariant& v, std::ostream* os) { *os << v.name; }

class LuleshEngineSweepP : public ::testing::TestWithParam<LuleshVariant> {};

TEST_P(LuleshEngineSweepP, EnginesAndSchedulesAgree) {
  using namespace apps::lulesh;
  const LuleshVariant& v = GetParam();
  Config cfg;
  cfg.par = v.par;
  cfg.mp = v.mp;
  cfg.jliteMem = v.jlite;
  cfg.s = 4;
  cfg.rside = v.mp ? 2 : 1;
  cfg.nsteps = 2;
  cfg.jlTasks = 3;
  ir::Module mod = build(cfg);
  prepare(mod);
  core::GradInfo gi = buildGradient(mod);

  auto runBoth = [&](int threads) {
    EngineGuard guard("exec");
    RunResult pl = runPrimal(mod, cfg, threads);
    RunResult gl = runGradient(mod, gi, cfg, threads);
    for (const char* eng : {"tree", "codegen"}) {
      SCOPED_TRACE(eng);
      interp::setDefaultEngine(eng);
      RunResult pt = runPrimal(mod, cfg, threads);
      RunResult gt = runGradient(mod, gi, cfg, threads);
      expectBitIdentical(pl, pt, v.name);
      expectBitIdentical(gl, gt, v.name);
      expectSameVec(gl.gradE, gt.gradE, v.name);
      expectSameVec(gl.gradU, gt.gradU, v.name);
    }
    return std::make_pair(pl, gl);
  };
  auto r2 = runBoth(2);
  auto r5 = runBoth(5);
  // Schedule independence: values and gradients don't depend on the thread
  // count up to reduction-order rounding (makespans legitimately do).
  EXPECT_NEAR(r2.first.objective, r5.first.objective,
              1e-12 * std::abs(r5.first.objective))
      << v.name;
  expectNearVec(r2.second.gradE, r5.second.gradE, v.name);
  expectNearVec(r2.second.gradU, r5.second.gradU, v.name);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LuleshEngineSweepP,
    ::testing::Values(
        LuleshVariant{"omp", apps::lulesh::Config::Par::Omp, false, false},
        LuleshVariant{"mp", apps::lulesh::Config::Par::Serial, true, false},
        LuleshVariant{"hybrid", apps::lulesh::Config::Par::Omp, true, false},
        LuleshVariant{"raja", apps::lulesh::Config::Par::Raja, false, false},
        LuleshVariant{"jlite", apps::lulesh::Config::Par::JliteTasks, false,
                      true}),
    [](const ::testing::TestParamInfo<LuleshVariant>& info) {
      return std::string(info.param.name);
    });

struct BudeVariant {
  const char* name;
  apps::minibude::Config::Par par;
  bool jlite;
};

void PrintTo(const BudeVariant& v, std::ostream* os) { *os << v.name; }

class BudeEngineSweepP : public ::testing::TestWithParam<BudeVariant> {};

TEST_P(BudeEngineSweepP, EnginesAndSchedulesAgree) {
  using namespace apps::minibude;
  const BudeVariant& v = GetParam();
  Config cfg;
  cfg.par = v.par;
  cfg.jliteMem = v.jlite;
  cfg.poses = 12;
  cfg.ligAtoms = 5;
  cfg.protAtoms = 9;
  cfg.jlTasks = 3;
  ir::Module mod = build(cfg);
  prepare(mod);
  core::GradInfo gi = buildGradient(mod);

  auto runBoth = [&](int threads) {
    EngineGuard guard("exec");
    RunResult pl = runPrimal(mod, cfg, threads);
    RunResult gl = runGradient(mod, gi, cfg, threads);
    for (const char* eng : {"tree", "codegen"}) {
      SCOPED_TRACE(eng);
      interp::setDefaultEngine(eng);
      RunResult pt = runPrimal(mod, cfg, threads);
      RunResult gt = runGradient(mod, gi, cfg, threads);
      expectBitIdentical(pl, pt, v.name);
      expectBitIdentical(gl, gt, v.name);
      expectSameVec(gl.gradPoses, gt.gradPoses, v.name);
      expectSameVec(gl.gradLig, gt.gradLig, v.name);
    }
    return std::make_pair(pl, gl);
  };
  auto r2 = runBoth(2);
  auto r5 = runBoth(5);
  EXPECT_NEAR(r2.first.objective, r5.first.objective,
              1e-12 * std::abs(r5.first.objective))
      << v.name;
  expectNearVec(r2.second.gradPoses, r5.second.gradPoses, v.name);
  expectNearVec(r2.second.gradLig, r5.second.gradLig, v.name);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BudeEngineSweepP,
    ::testing::Values(
        BudeVariant{"omp", apps::minibude::Config::Par::Omp, false},
        BudeVariant{"jlite", apps::minibude::Config::Par::JliteTasks, true}),
    [](const ::testing::TestParamInfo<BudeVariant>& info) {
      return std::string(info.param.name);
    });
