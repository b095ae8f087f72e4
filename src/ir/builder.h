// FunctionBuilder: the programmatic frontend for constructing parad IR.
//
// Frontends (omp EDSL, raja templates, jlite) and applications emit IR
// through this builder, playing the role Clang/Flang/Julia play for LLVM in
// the paper. Structured regions are built with lambda callbacks so nesting
// and SSA scoping are correct by construction.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/inst.h"

namespace parad::ir {

/// Lightweight SSA value handle used while building.
struct Value {
  int id = -1;
  Type type = Type::Void;
  bool valid() const { return id >= 0; }
};

class FunctionBuilder {
 public:
  FunctionBuilder(Module& mod, std::string name, std::vector<Type> params,
                  Type ret = Type::Void)
      : mod_(mod) {
    fn_.name = std::move(name);
    fn_.paramTypes = params;
    fn_.retType = ret;
    for (Type t : params) fn_.body.args.push_back(newValue(t));
    stack_.push_back(&fn_.body);
  }

  Value param(int i) {
    PARAD_CHECK(i >= 0 && i < static_cast<int>(fn_.paramTypes.size()),
                "bad param index");
    return {fn_.body.args[static_cast<std::size_t>(i)], fn_.paramTypes[static_cast<std::size_t>(i)]};
  }

  // ---- constants ----
  Value constF(double v) {
    Inst in{Op::ConstF};
    in.fconst = v;
    return push(std::move(in), Type::F64);
  }
  Value constI(i64 v) {
    Inst in{Op::ConstI};
    in.iconst = v;
    return push(std::move(in), Type::I64);
  }
  Value constB(bool v) {
    Inst in{Op::ConstB};
    in.iconst = v;
    return push(std::move(in), Type::I1);
  }

  // ---- f64 arithmetic ----
  Value fadd(Value a, Value b) { return binF(Op::FAdd, a, b); }
  Value fsub(Value a, Value b) { return binF(Op::FSub, a, b); }
  Value fmul(Value a, Value b) { return binF(Op::FMul, a, b); }
  Value fdiv(Value a, Value b) { return binF(Op::FDiv, a, b); }
  Value fneg(Value a) { return unF(Op::FNeg, a); }
  Value sqrt_(Value a) { return unF(Op::Sqrt, a); }
  Value sin_(Value a) { return unF(Op::Sin, a); }
  Value cos_(Value a) { return unF(Op::Cos, a); }
  Value exp_(Value a) { return unF(Op::Exp, a); }
  Value log_(Value a) { return unF(Op::Log, a); }
  Value cbrt_(Value a) { return unF(Op::Cbrt, a); }
  Value fabs_(Value a) { return unF(Op::FAbs, a); }
  Value pow_(Value a, Value b) { return binF(Op::Pow, a, b); }
  Value fmin_(Value a, Value b) { return binF(Op::FMin, a, b); }
  Value fmax_(Value a, Value b) { return binF(Op::FMax, a, b); }

  // ---- i64 arithmetic ----
  Value iadd(Value a, Value b) { return binI(Op::IAdd, a, b); }
  Value isub(Value a, Value b) { return binI(Op::ISub, a, b); }
  Value imul(Value a, Value b) { return binI(Op::IMul, a, b); }
  Value idiv(Value a, Value b) { return binI(Op::IDiv, a, b); }
  Value irem(Value a, Value b) { return binI(Op::IRem, a, b); }
  Value imin_(Value a, Value b) { return binI(Op::IMinOp, a, b); }
  Value imax_(Value a, Value b) { return binI(Op::IMaxOp, a, b); }
  Value iaddc(Value a, i64 c) { return iadd(a, constI(c)); }
  Value imulc(Value a, i64 c) { return imul(a, constI(c)); }

  // ---- comparisons / booleans ----
  Value ieq(Value a, Value b) { return cmp(Op::ICmpEq, a, b, Type::I64); }
  Value ine(Value a, Value b) { return cmp(Op::ICmpNe, a, b, Type::I64); }
  Value ilt(Value a, Value b) { return cmp(Op::ICmpLt, a, b, Type::I64); }
  Value ile(Value a, Value b) { return cmp(Op::ICmpLe, a, b, Type::I64); }
  Value igt(Value a, Value b) { return cmp(Op::ICmpGt, a, b, Type::I64); }
  Value ige(Value a, Value b) { return cmp(Op::ICmpGe, a, b, Type::I64); }
  Value flt(Value a, Value b) { return cmp(Op::FCmpLt, a, b, Type::F64); }
  Value fle(Value a, Value b) { return cmp(Op::FCmpLe, a, b, Type::F64); }
  Value fgt(Value a, Value b) { return cmp(Op::FCmpGt, a, b, Type::F64); }
  Value fge(Value a, Value b) { return cmp(Op::FCmpGe, a, b, Type::F64); }
  Value feq(Value a, Value b) { return cmp(Op::FCmpEq, a, b, Type::F64); }
  Value band(Value a, Value b) { return bin(Op::BAnd, a, b, Type::I1, Type::I1); }
  Value bor(Value a, Value b) { return bin(Op::BOr, a, b, Type::I1, Type::I1); }
  Value bnot(Value a) {
    Inst in{Op::BNot};
    in.operands = {a.id};
    return push(std::move(in), Type::I1);
  }
  Value select(Value c, Value a, Value b) {
    PARAD_CHECK(a.type == b.type, "select arms must have equal types");
    Inst in{Op::Select};
    in.operands = {c.id, a.id, b.id};
    return push(std::move(in), a.type);
  }
  Value itof(Value a) {
    Inst in{Op::IToF};
    in.operands = {a.id};
    return push(std::move(in), Type::F64);
  }
  Value ftoi(Value a) {
    Inst in{Op::FToI};
    in.operands = {a.id};
    return push(std::move(in), Type::I64);
  }

  // ---- memory ----
  Value alloc(Value count, Type elem, unsigned flags = kFlagNone) {
    Inst in{Op::Alloc};
    in.operands = {count.id};
    in.iconst = static_cast<i64>(elem);
    in.flags = flags;
    return push(std::move(in), ptrTo(elem));
  }
  void free_(Value p) { pushVoid(Op::Free, {p.id}); }
  Value load(Value p, Value idx) {
    Inst in{Op::Load};
    in.operands = {p.id, idx.id};
    return push(std::move(in), elemType(p.type));
  }
  void store(Value p, Value idx, Value v) {
    PARAD_CHECK(v.type == elemType(p.type), "store type mismatch");
    pushVoid(Op::Store, {p.id, idx.id, v.id});
  }
  Value ptrOffset(Value p, Value idx) {
    Inst in{Op::PtrOffset};
    in.operands = {p.id, idx.id};
    return push(std::move(in), p.type);
  }
  void atomicAddF(Value p, Value idx, Value v) {
    pushVoid(Op::AtomicAddF, {p.id, idx.id, v.id});
  }
  void memset0(Value p, Value count) { pushVoid(Op::Memset0, {p.id, count.id}); }

  // ---- calls / return ----
  Value call(const std::string& callee, std::vector<Value> args) {
    const Function& f = mod_.get(callee);
    Inst in{Op::Call};
    in.sym = callee;
    for (Value a : args) in.operands.push_back(a.id);
    if (f.retType == Type::Void) {
      pushInst(std::move(in));
      return {};
    }
    return push(std::move(in), f.retType);
  }
  Value callIndirect(Value addr, std::vector<Value> args, Type retType) {
    Inst in{Op::CallIndirect};
    in.operands = {addr.id};
    for (Value a : args) in.operands.push_back(a.id);
    if (retType == Type::Void) {
      pushInst(std::move(in));
      return {};
    }
    return push(std::move(in), retType);
  }
  void ret() { pushVoid(Op::Return, {}); }
  void ret(Value v) { pushVoid(Op::Return, {v.id}); }

  // ---- structured control flow ----
  void emitFor(Value lo, Value hi, const std::function<void(Value)>& body) {
    Inst in{Op::For};
    in.operands = {lo.id, hi.id};
    withRegion(in, {Type::I64},
               [&](const std::vector<Value>& a) { body(a[0]); });
    pushInst(std::move(in));
  }
  void emitIf(Value cond, const std::function<void()>& then,
              const std::function<void()>& els = nullptr) {
    Inst in{Op::If};
    in.operands = {cond.id};
    withRegion(in, {}, [&](const std::vector<Value>&) { then(); });
    withRegion(in, {}, [&](const std::vector<Value>&) {
      if (els) els();
    });
    pushInst(std::move(in));
  }
  /// do-while loop; `body(iter)` must return the i1 "continue" value.
  void emitWhile(const std::function<Value(Value)>& body) {
    Inst in{Op::While};
    withRegion(in, {Type::I64}, [&](const std::vector<Value>& a) {
      Value cont = body(a[0]);
      pushVoid(Op::Yield, {cont.id});
    });
    pushInst(std::move(in));
  }

  // ---- parallel constructs ----
  void emitParallelFor(Value lo, Value hi, const std::function<void(Value)>& body) {
    Inst in{Op::ParallelFor};
    in.operands = {lo.id, hi.id};
    withRegion(in, {Type::I64},
               [&](const std::vector<Value>& a) { body(a[0]); });
    pushInst(std::move(in));
  }
  void emitFork(Value nthreads, const std::function<void(Value)>& body) {
    Inst in{Op::Fork};
    in.operands = {nthreads.id};
    withRegion(in, {Type::I64},
               [&](const std::vector<Value>& a) { body(a[0]); });
    pushInst(std::move(in));
  }
  /// `reversedChunks`: each thread runs its static chunk in descending
  /// iteration order (used by the AD engine to reverse per-thread
  /// loop-carried state; "subdivide the loop and then reverse the order of
  /// each per-thread chunk", paper §VI-A2).
  void emitWorkshare(Value lo, Value hi, const std::function<void(Value)>& body,
                     bool reversedChunks = false) {
    Inst in{Op::Workshare};
    in.operands = {lo.id, hi.id};
    in.iconst = reversedChunks ? 1 : 0;
    withRegion(in, {Type::I64},
               [&](const std::vector<Value>& a) { body(a[0]); });
    pushInst(std::move(in));
  }
  void barrier() { pushVoid(Op::BarrierOp, {}); }
  Value threadId() { return push(Inst{Op::ThreadIdOp}, Type::I64); }
  Value numThreads() { return push(Inst{Op::NumThreadsOp}, Type::I64); }
  Value spawn(const std::function<void()>& body) {
    Inst in{Op::Spawn};
    withRegion(in, {}, [&](const std::vector<Value>&) { body(); });
    return push(std::move(in), Type::Task);
  }
  void sync(Value task) { pushVoid(Op::SyncOp, {task.id}); }

  // ---- message passing ----
  Value mpRank() { return push(Inst{Op::MpRank}, Type::I64); }
  Value mpSize() { return push(Inst{Op::MpSize}, Type::I64); }
  Value mpIsend(Value p, Value count, Value dest, Value tag) {
    Inst in{Op::MpIsend};
    in.operands = {p.id, count.id, dest.id, tag.id};
    return push(std::move(in), Type::Req);
  }
  Value mpIrecv(Value p, Value count, Value src, Value tag) {
    Inst in{Op::MpIrecv};
    in.operands = {p.id, count.id, src.id, tag.id};
    return push(std::move(in), Type::Req);
  }
  void mpWait(Value req) { pushVoid(Op::MpWaitOp, {req.id}); }
  void mpSend(Value p, Value count, Value dest, Value tag) {
    pushVoid(Op::MpSend, {p.id, count.id, dest.id, tag.id});
  }
  void mpRecv(Value p, Value count, Value src, Value tag) {
    pushVoid(Op::MpRecv, {p.id, count.id, src.id, tag.id});
  }
  /// `winners` (optional, ptr<i64>) receives the winning rank per element for
  /// min/max reductions; the AD engine uses it to route adjoints.
  void mpAllreduce(Value send, Value recv, Value count, ReduceKind k,
                   Value winners = {}) {
    Inst in{Op::MpAllreduce};
    in.operands = {send.id, recv.id, count.id};
    if (winners.valid()) in.operands.push_back(winners.id);
    in.iconst = static_cast<i64>(k);
    pushInst(std::move(in));
  }
  void mpBarrier() { pushVoid(Op::MpBarrier, {}); }

  // ---- omp dialect ----
  struct OmpClauseSpec {
    OmpClauseKind kind;
    Value operand;  // see OmpClauseKind for meaning; invalid for Private
    ReduceKind reduce = ReduceKind::Sum;
  };
  /// Emits the high-level worksharing-loop op. `body` receives the induction
  /// variable and one ptr<f64> per clause (the thread-local slot).
  void emitOmpParallelFor(Value lo, Value hi, std::vector<OmpClauseSpec> clauses,
                          const std::function<void(Value, std::vector<Value>)>& body,
                          Value numThreads = {}) {
    Inst in{Op::OmpParallelFor};
    in.operands = {lo.id, hi.id};
    in.omp = std::make_shared<OmpInfo>();
    for (const auto& c : clauses) {
      if (c.kind != OmpClauseKind::Private) {
        PARAD_CHECK(c.operand.valid(), "omp clause requires an operand");
        in.operands.push_back(c.operand.id);
      } else {
        in.operands.push_back(constI(0).id);  // placeholder operand
      }
      in.omp->clauses.push_back({c.kind, c.reduce});
    }
    if (numThreads.valid()) {
      in.omp->numThreadsOperand = static_cast<int>(in.operands.size());
      in.operands.push_back(numThreads.id);
    }
    std::vector<Type> argTypes{Type::I64};
    for (std::size_t i = 0; i < clauses.size(); ++i)
      argTypes.push_back(Type::PtrF64);
    withRegion(in, argTypes, [&](const std::vector<Value>& a) {
      body(a[0], std::vector<Value>(a.begin() + 1, a.end()));
    });
    pushInst(std::move(in));
  }

  // ---- jlite dialect ----
  Value jlAllocArray(Value count) {
    Inst in{Op::JlAllocArray};
    in.operands = {count.id};
    return push(std::move(in), Type::PtrPtr);
  }
  Value gcPreserveBegin(std::vector<Value> ptrs) {
    Inst in{Op::GcPreserveBegin};
    for (Value p : ptrs) in.operands.push_back(p.id);
    return push(std::move(in), Type::I64);
  }
  void gcPreserveEnd(Value token) { pushVoid(Op::GcPreserveEnd, {token.id}); }

  /// Emits a region-free instruction of `op` with no payload but `fconst`.
  Value emit(Op op, std::span<const Value> ops, Type resultTy,
             double fconst = 0) {
    Inst in{op};
    in.fconst = fconst;
    in.operands.reserve(ops.size());
    for (Value v : ops) in.operands.push_back(v.id);
    return push(std::move(in), resultTy);
  }

  /// Emits a clone of a region-free instruction with remapped operands;
  /// copies op, payloads and flags. Used by passes and the AD engine.
  Value emitCloned(const Inst& proto, const std::vector<Value>& ops,
                   Type resultTy) {
    PARAD_CHECK(proto.regions.empty(), "emitCloned: structured op");
    Inst in(proto.op);
    in.fconst = proto.fconst;
    in.iconst = proto.iconst;
    in.sym = proto.sym;
    in.flags = proto.flags;
    in.omp = proto.omp;
    for (Value v : ops) in.operands.push_back(v.id);
    if (resultTy == Type::Void) {
      pushInst(std::move(in));
      return {};
    }
    return push(std::move(in), resultTy);
  }

  /// Emits a clone of a structured (region-bearing) instruction: copies op
  /// and payloads, takes remapped operands, and fills each region through
  /// `fill(regionIndex, regionArgs)`. Used by the generic IR cloner.
  Value emitStructured(
      const Inst& proto, const std::vector<Value>& ops,
      const std::vector<std::vector<Type>>& regionArgTypes,
      const std::function<void(int, const std::vector<Value>&)>& fill,
      Type resultTy) {
    Inst in(proto.op);
    in.fconst = proto.fconst;
    in.iconst = proto.iconst;
    in.sym = proto.sym;
    in.flags = proto.flags;
    in.omp = proto.omp;
    for (Value v : ops) in.operands.push_back(v.id);
    for (std::size_t r = 0; r < regionArgTypes.size(); ++r)
      withRegion(in, regionArgTypes[r], [&](const std::vector<Value>& a) {
        fill(static_cast<int>(r), a);
      });
    if (resultTy == Type::Void) {
      pushInst(std::move(in));
      return {};
    }
    return push(std::move(in), resultTy);
  }

  /// Finalizes the function, installs it in the module, returns a reference.
  Function& finish() {
    PARAD_CHECK(stack_.size() == 1, "unbalanced region nesting in ", fn_.name);
    std::string name = fn_.name;
    mod_.functions[name] = std::move(fn_);
    return mod_.get(name);
  }

  Module& module() { return mod_; }
  Type typeOf(Value v) const { return v.type; }

 private:
  Value newValueHandle(Type t) { return {newValue(t), t}; }
  int newValue(Type t) {
    fn_.valueTypes.push_back(t);
    return static_cast<int>(fn_.valueTypes.size()) - 1;
  }
  Region& top() { return *stack_.back(); }
  void pushInst(Inst in) { top().insts.push_back(std::move(in)); }
  Value push(Inst in, Type t) {
    Value v = newValueHandle(t);
    in.result = v.id;
    pushInst(std::move(in));
    return v;
  }
  void pushVoid(Op op, std::vector<int> operands) {
    Inst in{op};
    in.operands = std::move(operands);
    pushInst(std::move(in));
  }
  Value binF(Op op, Value a, Value b) { return bin(op, a, b, Type::F64, Type::F64); }
  Value unF(Op op, Value a) {
    PARAD_CHECK(a.type == Type::F64, "expected f64 operand");
    Inst in{op};
    in.operands = {a.id};
    return push(std::move(in), Type::F64);
  }
  Value binI(Op op, Value a, Value b) { return bin(op, a, b, Type::I64, Type::I64); }
  Value bin(Op op, Value a, Value b, Type operandTy, Type resultTy) {
    PARAD_CHECK(a.type == operandTy && b.type == operandTy,
                "operand type mismatch for ", traits(op).name);
    Inst in{op};
    in.operands = {a.id, b.id};
    return push(std::move(in), resultTy);
  }
  Value cmp(Op op, Value a, Value b, Type operandTy) {
    return bin(op, a, b, operandTy, Type::I1);
  }
  void withRegion(Inst& in, std::vector<Type> argTypes,
                  const std::function<void(const std::vector<Value>&)>& fill) {
    in.regions.emplace_back();
    // Build into a detached region to keep pointers stable while nested
    // instructions (possibly with their own regions) are appended.
    Region r;
    std::vector<Value> args;
    for (Type t : argTypes) {
      Value v = newValueHandle(t);
      r.args.push_back(v.id);
      args.push_back(v);
    }
    stack_.push_back(&r);
    fill(args);
    stack_.pop_back();
    in.regions.back() = std::move(r);
  }

  Module& mod_;
  Function fn_;
  std::vector<Region*> stack_;
};

}  // namespace parad::ir
