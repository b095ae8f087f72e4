// Shared helpers for the parad test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/core/gradient.h"
#include "src/cotape/cotape.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/psim/sim.h"

namespace parad::test {

/// mkdtemp's a fresh private directory under the gtest temp root. Each call
/// gets a unique path even across concurrently running test processes, so
/// suites that write disk artifacts (codegen cache, durable checkpoints)
/// never collide under `ctest -j`.
inline std::string makeTempDir(const std::string& prefix) {
  std::string tmpl = ::testing::TempDir() + prefix + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* made = ::mkdtemp(buf.data());
  PARAD_CHECK(made != nullptr, "mkdtemp failed for ", tmpl);
  return made;
}

/// Sets one environment variable for the enclosing scope and restores the
/// previous state on exit (gtest runs tests sequentially, so this cannot race
/// another test's getenv).
struct EnvVar {
  std::string name;
  std::string saved;
  bool hadValue;
  EnvVar(const std::string& n, const std::string& value) : name(n) {
    const char* old = std::getenv(n.c_str());
    hadValue = old != nullptr;
    if (hadValue) saved = old;
    ::setenv(n.c_str(), value.c_str(), 1);
  }
  ~EnvVar() {
    if (hadValue)
      ::setenv(name.c_str(), saved.c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

/// Runs `fn` single-rank with the given scalar/pointer args already encoded
/// as RtVals; returns the function result.
inline interp::RtVal runSerial(const ir::Module& mod, const ir::Function& fn,
                               psim::Machine& machine,
                               std::vector<interp::RtVal> args,
                               int threadsPerRank = 4) {
  interp::RtVal out{};
  machine.run({1, threadsPerRank}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, machine);
    out = it.run(fn, args, env);
  });
  return out;
}

/// Allocates an f64 object initialized from `init`.
inline psim::RtPtr makeF64(psim::Machine& m, const std::vector<double>& init) {
  psim::RtPtr p = m.mem().alloc(ir::Type::F64, static_cast<i64>(init.size()), 0);
  for (std::size_t k = 0; k < init.size(); ++k)
    m.mem().atF(p, static_cast<i64>(k)) = init[k];
  return p;
}

inline std::vector<double> readF64(psim::Machine& m, psim::RtPtr p, i64 n) {
  std::vector<double> out(static_cast<std::size_t>(n));
  for (i64 k = 0; k < n; ++k)
    out[static_cast<std::size_t>(k)] = m.mem().atF(p, k);
  return out;
}

// ---------------------------------------------------------------------------
// Gradient-check helpers for functions with the canonical test signature
//     f(x: ptr<f64>, n: i64) -> f64
// with x the (only) active argument.
// ---------------------------------------------------------------------------

inline double evalScalarFn(const ir::Module& mod, const std::string& name,
                           const std::vector<double>& x, int threads = 4) {
  psim::Machine m;
  psim::RtPtr p = makeF64(m, x);
  auto out = runSerial(mod, mod.get(name), m,
                       {interp::RtVal::P(p), interp::RtVal::I((i64)x.size())},
                       threads);
  return out.u.f;
}

/// Runs the AD gradient (reverse mode, seed 1) of `name`; returns dx.
/// Generates the gradient on first use.
inline std::vector<double> adGradScalarFn(ir::Module& mod,
                                          const std::string& name,
                                          const std::vector<double>& x,
                                          core::GradConfig cfg = {},
                                          int threads = 4,
                                          double seed = 1.0,
                                          double* primalOut = nullptr) {
  if (cfg.activeArg.empty()) cfg.activeArg = {true, false};
  core::GradInfo gi = core::generateGradient(mod, name, cfg);
  psim::Machine m;
  psim::RtPtr p = makeF64(m, x);
  psim::RtPtr dp = makeF64(m, std::vector<double>(x.size(), 0.0));
  auto out = runSerial(mod, mod.get(gi.name), m,
                       {interp::RtVal::P(p), interp::RtVal::I((i64)x.size()),
                        interp::RtVal::P(dp), interp::RtVal::F(seed)},
                       threads);
  if (primalOut) *primalOut = out.u.f;
  return readF64(m, dp, (i64)x.size());
}

/// Runs cotape's gradient (seed `seed`) of `name`; returns dx. cotape seeds
/// through an output binding, so a thin wrapper stores the returned scalar
/// to a 1-element buffer.
inline std::vector<double> cotapeGradScalarFn(
    const ir::Module& mod, const std::string& name,
    const std::vector<double>& x, double* primalTime = nullptr,
    std::uint64_t* tapeBytes = nullptr, double seed = 1.0) {
  psim::Machine m;
  auto p = makeF64(m, x);
  auto dp = makeF64(m, std::vector<double>(x.size(), 0));
  ir::Module wrapped = mod;
  {
    ir::FunctionBuilder b(wrapped, "cotape_wrap",
                          {ir::Type::PtrF64, ir::Type::I64, ir::Type::PtrF64});
    auto r = b.call(name, {b.param(0), b.param(1)});
    b.store(b.param(2), b.constI(0), r);
    b.ret();
    b.finish();
  }
  auto op = makeF64(m, {0.0});
  auto dop = makeF64(m, {seed});
  double t = m.run({1, 1}, [&](psim::RankEnv& env) {
    cotape::TapeInterpreter tape(wrapped, m);
    tape.gradient(wrapped.get("cotape_wrap"),
                  {interp::RtVal::P(p), interp::RtVal::I((i64)x.size()),
                   interp::RtVal::P(op)},
                  env, {{p, dp, (i64)x.size()}}, {{op, dop, 1}});
  });
  if (primalTime) *primalTime = t;
  if (tapeBytes) *tapeBytes = m.stats().tapeBytes;
  return readF64(m, dp, (i64)x.size());
}

/// Central finite differences of the canonical scalar function.
inline std::vector<double> fdGradScalarFn(const ir::Module& mod,
                                          const std::string& name,
                                          const std::vector<double>& x,
                                          double h = 1e-6, int threads = 4) {
  std::vector<double> g(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    g[i] = (evalScalarFn(mod, name, xp, threads) -
            evalScalarFn(mod, name, xm, threads)) /
           (2 * h);
  }
  return g;
}

/// Asserts the AD gradient matches finite differences within rel/abs tol.
inline void expectGradMatchesFD(ir::Module& mod, const std::string& name,
                                const std::vector<double>& x,
                                double tol = 1e-5, core::GradConfig cfg = {},
                                int threads = 4) {
  auto ad = adGradScalarFn(mod, name, x, cfg, threads);
  auto fd = fdGradScalarFn(mod, name, x, 1e-6, threads);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double denom = std::max(1.0, std::abs(fd[i]));
    EXPECT_NEAR(ad[i], fd[i], tol * denom)
        << "component " << i << " of grad(" << name << ")";
  }
}

}  // namespace parad::test
