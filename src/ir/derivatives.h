// The derivative rule of every differentiable f64 op, written once. The
// reverse emitter (src/core/emit_reverse.cpp), the forward emitter
// (src/core/forward.cpp), cotape's taped partials (src/cotape/cotape.cpp)
// and the AD planner's required values and adjoint targets
// (src/core/plan.cpp) all expand `derivative` below. DESIGN.md §9 has the
// recipe for adding an op.
//
// A rule gives operand i's adjoint contribution g · ∂r/∂x_i from the result
// adjoint g, the operands a = x_0 and b = x_1 and the result r. Rules are
// linear in g: forward mode applies them to each varied operand's tangent
// and sums, and cotape evaluates them at g = 1. A rule is generic over its
// scalar algebra M, which supplies the reads a(), b(), r(), the constant
// c(k), neg, sub, mul, div, sin, cos, log, pow, lt (x < y, as 1 or 0), eq
// (x == y, as 1 or 0) and select(cond, x, y); the algebras follow the
// rules. No call in a rule has two arguments that compute (reads
// included): C++ leaves the order of f(x(), y()) unspecified, and the IR
// algebra emits in evaluation order.
//
// Select is not here: its adjoint routes g to the arm it picked, which each
// consumer does next to its pointer-shadow routing.
#pragma once

#include <array>
#include <cmath>
#include <optional>

#include "src/ir/builder.h"

namespace parad::ir {

/// The contribution of operand `i` of `op`, or nothing if op has no rule.
template <class M, class V = typename M::V>
std::optional<V> derivative(Op op, int i, V g, M& m) {
  switch (op) {
    case Op::FAdd: return g;
    case Op::FSub: return i == 0 ? g : m.neg(g);
    case Op::FMul: return m.mul(g, i == 0 ? m.b() : m.a());
    case Op::FDiv: {  // g / b and -(g / b) · a / b
      V y = m.b();
      if (i == 0) return m.div(g, y);
      V x = m.a();
      return m.neg(m.div(m.mul(m.div(g, y), x), y));
    }
    case Op::FNeg: return m.neg(g);
    case Op::Sqrt: {  // g · 0.5 / r
      V r = m.r();
      return m.div(m.mul(g, m.c(0.5)), r);
    }
    case Op::Sin: return m.mul(g, m.cos(m.a()));
    case Op::Cos: return m.neg(m.mul(g, m.sin(m.a())));
    case Op::Exp: return m.mul(g, m.r());
    case Op::Log: return m.div(g, m.a());
    case Op::Pow: {
      V x = m.a();
      if (i == 0) {  // g · b · a^(b-1), taken as 0 where b = ±0
        V e = m.b();
        V d = m.mul(g, m.mul(e, m.pow(x, m.sub(e, m.c(1)))));
        V zero = m.c(0);
        return m.select(m.eq(e, zero), zero, d);
      }
      // g · r · log a, taken as 0 where a <= 0 (DESIGN.md §8).
      V r = m.r();
      V d = m.mul(g, m.mul(r, m.log(x)));
      V zero = m.c(0);
      return m.select(m.lt(zero, x), d, zero);
    }
    case Op::FAbs: {
      V x = m.a();
      V negG = m.neg(g);
      return m.select(m.lt(x, m.c(0)), negG, g);
    }
    case Op::FMin:
    case Op::FMax: {
      // g goes to the operand the primal returns: fmin returns b iff b < a,
      // fmax iff a < b (ops.def), so a NaN operand routes it alike.
      V x = m.a();
      V y = m.b();
      V takeB = op == Op::FMin ? m.lt(y, x) : m.lt(x, y);
      V zero = m.c(0);
      return i == 0 ? m.select(takeB, zero, g) : m.select(takeB, g, zero);
    }
    case Op::Cbrt: {  // g / (3 r^2)
      V r = m.r();
      V rr = m.mul(r, r);
      return m.div(g, m.mul(m.c(3), rr));
    }
    default: return std::nullopt;
  }
}

/// The ops with an f64 result and no rule: integers carry no derivative, so
/// their results are never varied (analysis::FnInfo).
inline bool noDerivative(Op op) { return op == Op::IToF; }

/// Doubles: a rule evaluated at the operand and result values.
struct DoubleRules {
  using V = double;
  double x0, x1, res;
  V a() const { return x0; }
  V b() const { return x1; }
  V r() const { return res; }
  static V c(double k) { return k; }
  static V neg(V x) { return -x; }
  static V sub(V x, V y) { return x - y; }
  static V mul(V x, V y) { return x * y; }
  static V div(V x, V y) { return x / y; }
  static V sin(V x) { return std::sin(x); }
  static V cos(V x) { return std::cos(x); }
  static V log(V x) { return std::log(x); }
  static V pow(V x, V y) { return std::pow(x, y); }
  static V lt(V x, V y) { return x < y ? 1 : 0; }
  static V eq(V x, V y) { return x == y ? 1 : 0; }
  static V select(V cond, V x, V y) { return cond != 0 ? x : y; }
};

/// What a rule reads, as a mask of these bits: doubles whose reads record.
enum : unsigned { kReadA = 1, kReadB = 2, kReadR = 4 };
struct RuleReads : DoubleRules {
  unsigned mask = 0;
  V a() { mask |= kReadA; return 1; }
  V b() { mask |= kReadB; return 1; }
  V r() { mask |= kReadR; return 1; }
};

/// Per op: whether it has a rule, and what operand 0's and 1's rules read.
struct RuleInfo {
  bool ruled = false;
  unsigned reads[2] = {0, 0};
};
inline const RuleInfo& ruleInfo(Op op) {
  static const std::array<RuleInfo, kNumOps> table = [] {
    std::array<RuleInfo, kNumOps> t{};
    for (int k = 0; k < kNumOps; ++k)
      for (int i = 0; i < 2; ++i) {
        RuleReads m{};
        t[(std::size_t)k].ruled = derivative(Op(k), i, 1.0, m).has_value();
        t[(std::size_t)k].reads[i] = m.mask;
      }
    return t;
  }();
  return table[static_cast<std::size_t>(op)];
}
inline bool hasDerivative(Op op) { return ruleInfo(op).ruled; }
inline unsigned derivativeReads(Op op, int i) { return ruleInfo(op).reads[i]; }

/// Throws unless op has a rule; the emitters call it for a varied f64
/// result, so an op added without a rule fails instead of dropping its
/// derivative.
inline void requireDerivative(Op op) {
  if (!hasDerivative(op)) fail("no derivative rule for ", traits(op).name);
}

/// IR: the rules of one instruction emitted through a FunctionBuilder.
/// read(k) gives operand k (k = 0, 1) or the result (k = 2). A term free of
/// g is the same in every operand's rule, so it is emitted once per
/// instruction (fmin's comparison and zero serve both operands).
template <class Read>
class IrRules {
 public:
  struct V {
    Value v;
    bool g = false;  // involves the adjoint (or tangent) g
  };
  IrRules(FunctionBuilder& b, Read read) : b_(b), read_(read) {}

  /// The contribution of operand i to adjoint g; throws if op has no rule.
  Value derivative(Op op, int i, Value g) {
    std::optional<V> d = ir::derivative(op, i, V{g, true}, *this);
    if (!d) requireDerivative(op);
    return d->v;
  }

  V a() { return {read_(0)}; }
  V b() { return {read_(1)}; }
  V r() { return {read_(2)}; }
  V c(double k) { return term(Op::ConstF, {}, k); }
  V neg(V x) { return term(Op::FNeg, {x}); }
  V sub(V x, V y) { return term(Op::FSub, {x, y}); }
  V mul(V x, V y) { return term(Op::FMul, {x, y}); }
  V div(V x, V y) { return term(Op::FDiv, {x, y}); }
  V sin(V x) { return term(Op::Sin, {x}); }
  V cos(V x) { return term(Op::Cos, {x}); }
  V log(V x) { return term(Op::Log, {x}); }
  V pow(V x, V y) { return term(Op::Pow, {x, y}); }
  V lt(V x, V y) { return term(Op::FCmpLt, {x, y}); }
  V eq(V x, V y) { return term(Op::FCmpEq, {x, y}); }
  V select(V cond, V x, V y) { return term(Op::Select, {cond, x, y}); }

 private:
  struct Term {  // an emitted g-free term
    Op op;
    double k;
    int x[3];
    Value v;
  };

  /// Emits a term, or reuses this instruction's equal g-free term.
  V term(Op op, std::initializer_list<V> xs, double k = 0) {
    Value ops[3];
    int n = 0;
    bool g = false;
    for (const V& x : xs) {
      ops[n++] = x.v;
      g = g || x.g;
    }
    auto same = [&](const Term& t) {
      return t.op == op && t.k == k && t.x[0] == ops[0].id &&
             t.x[1] == ops[1].id && t.x[2] == ops[2].id;
    };
    if (!g)
      for (int s = 0; s < numTerms_; ++s)
        if (same(terms_[s])) return {terms_[s].v};
    Value v = b_.emit(op, std::span<const Value>(ops, (std::size_t)n),
                      traits(op).result == Type::I1 ? Type::I1 : Type::F64,
                      k);
    if (!g && numTerms_ < kMaxTerms)
      terms_[numTerms_++] = {op, k, {ops[0].id, ops[1].id, ops[2].id}, v};
    return {v, g};
  }

  FunctionBuilder& b_;
  Read read_;
  static constexpr int kMaxTerms = 9;  // pow's two rules, the most, have nine
  Term terms_[kMaxTerms];              // g-free terms
  int numTerms_ = 0;
};

}  // namespace parad::ir
