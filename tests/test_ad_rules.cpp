// The derivative rule table (src/ir/derivatives.h): every f64 arithmetic row
// of ops.def has a rule or is listed as having none, and for every ruled op
// f(x) = op(x[0], x[1]) (x[0] alone for a unary op) the reverse emitter, the
// forward emitter and cotape agree at edge inputs in each slot and match
// finite differences at smooth interior points (paper §VII).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/core/forward.h"
#include "src/ir/derivatives.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Op;
using ir::Type;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const std::vector<double> kEdges = {
    0.0, -0.0, 1.0, 1.5, -1.5, 2.0, -2.0, kInf, -kInf,
    std::numeric_limits<double>::quiet_NaN()};

std::vector<Op> ruledOps() {
  std::vector<Op> ops;
  for (int k = 0; k < ir::kNumOps; ++k)
    if (ir::hasDerivative(static_cast<Op>(k))) ops.push_back(static_cast<Op>(k));
  return ops;
}

bool binary(Op op) { return ir::traits(op).numOperands() == 2; }

// f(x: ptr, n) -> f64 = op(x[0], x[1]), with its gradient and tangent
// functions generated once.
struct OpProgram {
  explicit OpProgram(Op op) : op(op) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    std::vector<ir::Value> xs{b.load(b.param(0), b.constI(0))};
    if (binary(op)) xs.push_back(b.load(b.param(0), b.constI(1)));
    b.ret(b.emitCloned(ir::Inst(op), xs, Type::F64));
    b.finish();
    ir::verify(mod);
    core::GradConfig gcfg;
    gcfg.activeArg = {true, false};
    grad = core::generateGradient(mod, "f", gcfg).name;
    core::FwdConfig fcfg;
    fcfg.activeArg = {true, false};
    fwd = core::generateForward(mod, "f", fcfg).name;
  }

  double value(double a, double b) const {
    return evalScalarFn(mod, "f", {a, b}, 1);
  }
  std::vector<double> reverse(double a, double b) const {
    psim::Machine m;
    auto x = makeF64(m, {a, b});
    auto dx = makeF64(m, {0, 0});
    runSerial(mod, mod.get(grad), m,
              {interp::RtVal::P(x), interp::RtVal::I(2), interp::RtVal::P(dx),
               interp::RtVal::F(1)},
              1);
    return readF64(m, dx, 2);
  }
  // The forward derivative along e_i.
  double forward(double a, double b, int i) const {
    psim::Machine m;
    auto x = makeF64(m, {a, b});
    auto dx = makeF64(m, {i == 0 ? 1.0 : 0.0, i == 1 ? 1.0 : 0.0});
    return runSerial(mod, mod.get(fwd), m,
                     {interp::RtVal::P(x), interp::RtVal::I(2),
                      interp::RtVal::P(dx)},
                     1)
        .u.f;
  }

  Op op;
  ir::Module mod;
  std::string grad, fwd;
};

std::string point(Op op, double a, double b) {
  std::ostringstream os;
  os << ir::traits(op).name << "(" << a;
  if (binary(op)) os << ", " << b;
  os << ")";
  return os.str();
}

}  // namespace

TEST(AdRules, EveryF64ArithmeticRowHasARuleOrIsListed) {
  int ruled = 0;
  for (int k = 0; k < ir::kNumOps; ++k) {
    Op op = static_cast<Op>(k);
    const ir::OpTraits& t = ir::traits(op);
    SCOPED_TRACE(t.name);
    bool f64Row = t.arith && t.result == Type::F64;
    bool rule = ir::hasDerivative(op);
    ruled += rule;
    if (f64Row) {
      EXPECT_NE(rule, ir::noDerivative(op)) << "exactly one of the two";
    } else {
      EXPECT_FALSE(rule);
      EXPECT_FALSE(ir::noDerivative(op));
    }
    // What the emitters' default arms call for a varied f64 result.
    if (rule) {
      EXPECT_NO_THROW(ir::requireDerivative(op));
    } else {
      try {
        ir::requireDerivative(op);
        ADD_FAILURE() << "no throw";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("no derivative rule for ") + t.name);
      }
    }
  }
  EXPECT_EQ(ruled, 15);
}

TEST(AdRules, RulesReadWhatThePlannerRequires) {
  // The planner makes available exactly what a rule reads: spot-check the
  // operand-only, result-only and mixed rules.
  using ir::kReadA;
  using ir::kReadB;
  using ir::kReadR;
  EXPECT_EQ(ir::derivativeReads(Op::FAdd, 0), 0u);
  EXPECT_EQ(ir::derivativeReads(Op::FMul, 0), unsigned(kReadB));
  EXPECT_EQ(ir::derivativeReads(Op::FMul, 1), unsigned(kReadA));
  EXPECT_EQ(ir::derivativeReads(Op::FDiv, 0), unsigned(kReadB));
  EXPECT_EQ(ir::derivativeReads(Op::FDiv, 1), unsigned(kReadA | kReadB));
  EXPECT_EQ(ir::derivativeReads(Op::Exp, 0), unsigned(kReadR));
  EXPECT_EQ(ir::derivativeReads(Op::Pow, 0), unsigned(kReadA | kReadB));
  EXPECT_EQ(ir::derivativeReads(Op::Pow, 1), unsigned(kReadA | kReadR));
  EXPECT_EQ(ir::derivativeReads(Op::FMin, 1), unsigned(kReadA | kReadB));
}

// Reverse, forward along e_0 and e_1, and cotape, at every pair of edge
// inputs: equal wherever all three are finite, and the same operands get a
// nonzero derivative.
TEST(AdRules, ReverseForwardAndCotapeAgreeAtEdgeInputs) {
  for (Op op : ruledOps()) {
    OpProgram prog(op);
    for (double a : kEdges)
      for (double b : binary(op) ? kEdges : std::vector<double>{1.5}) {
        SCOPED_TRACE(point(op, a, b));
        std::vector<double> rev = prog.reverse(a, b);
        std::vector<double> cot = cotapeGradScalarFn(prog.mod, "f", {a, b});
        double fwd[2] = {prog.forward(a, b, 0), prog.forward(a, b, 1)};
        for (int i = 0; i < 2; ++i) {
          SCOPED_TRACE("operand " + std::to_string(i));
          if (std::isfinite(rev[i]) && std::isfinite(fwd[i]) &&
              std::isfinite(cot[i])) {
            EXPECT_TRUE(rev[i] == fwd[i] && rev[i] == cot[i])
                << "reverse " << rev[i] << ", forward " << fwd[i]
                << ", cotape " << cot[i];
          }
          // NaN counts as nonzero.
          EXPECT_EQ(rev[i] != 0, cot[i] != 0)
              << "reverse " << rev[i] << ", cotape " << cot[i];
          // The forward derivative along e_i also sums the other operands'
          // rules at tangent 0, which is 0 * inf = NaN where a partial is
          // not finite.
          if (std::isnan(fwd[i]))
            EXPECT_FALSE(std::isfinite(rev[0]) && std::isfinite(rev[1]))
                << "forward NaN, reverse " << rev[0] << ", " << rev[1];
          else
            EXPECT_EQ(rev[i] != 0, fwd[i] != 0)
                << "reverse " << rev[i] << ", forward " << fwd[i];
        }
      }
  }
}

// At points where op is smooth along e_i, all three match central finite
// differences.
TEST(AdRules, MatchFiniteDifferencesAtSmoothPoints) {
  int checked = 0;
  for (Op op : ruledOps()) {
    OpProgram prog(op);
    for (double a : kEdges)
      for (double b : binary(op) ? kEdges : std::vector<double>{1.5})
        for (int i = 0; i < (binary(op) ? 2 : 1); ++i) {
          // a^b is constant near a = 0 for b = ±0, but the base rule
          // b * a^(b-1) is 0 * inf there (DESIGN.md §8).
          if (op == Op::Pow && i == 0 && a == 0 && b == 0) continue;
          if (!std::isfinite(a) || !std::isfinite(b)) continue;
          std::array<double, 2> x{a, b};
          double h = 1e-6 * std::max(1.0, std::abs(x[i]));
          auto at = [&](double k) {
            std::array<double, 2> y = x;
            y[i] += k * h;
            return prog.value(y[0], y[1]);
          };
          double f0 = at(0), fp = at(1), fm = at(-1), fp2 = at(2),
                 fm2 = at(-2);
          if (!std::isfinite(f0) || !std::isfinite(fp) || !std::isfinite(fm) ||
              !std::isfinite(fp2) || !std::isfinite(fm2))
            continue;
          // Smooth: the one-sided slopes agree and the central difference
          // has converged (a kink or a singular slope fails one of them).
          double right = (fp - f0) / h, left = (f0 - fm) / h;
          double fd = (fp - fm) / (2 * h), fd2 = (fp2 - fm2) / (4 * h);
          double scale = std::max({1.0, std::abs(right), std::abs(left)});
          if (std::abs(right - left) > 1e-3 * scale ||
              std::abs(fd - fd2) > 1e-4 * std::max(1.0, std::abs(fd)))
            continue;
          SCOPED_TRACE(point(op, a, b) + " along operand " +
                       std::to_string(i));
          double tol = 1e-5 * std::max(1.0, std::abs(fd));
          EXPECT_NEAR(prog.reverse(a, b)[(std::size_t)i], fd, tol) << "reverse";
          EXPECT_NEAR(prog.forward(a, b, i), fd, tol) << "forward";
          EXPECT_NEAR(cotapeGradScalarFn(prog.mod, "f", {a, b})[(std::size_t)i],
                      fd, tol)
              << "cotape";
          ++checked;
        }
  }
  EXPECT_GT(checked, 100);
}
