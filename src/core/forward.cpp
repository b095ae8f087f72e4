#include "src/core/forward.h"

#include <unordered_map>

#include "src/analysis/fninfo.h"
#include "src/core/plan.h"
#include "src/ir/builder.h"
#include "src/ir/derivatives.h"
#include "src/ir/verifier.h"

namespace parad::core {

using analysis::FnInfo;
using ir::Op;
using ir::Type;
using ir::Value;

namespace {

constexpr i64 kTagShift = i64(1) << 21;  // distinct from the reverse engine's

class FwdGen {
 public:
  FwdGen(ir::Module& mod, const ir::Function& primal, const FwdConfig& cfg)
      : mod_(mod), p_(primal), cfg_(cfg), info_(primal, cfg.activeArg) {}

  FwdInfo run() {
    std::string name = "fwd_" + p_.name + cfg_.nameSuffix;
    std::vector<Type> params = p_.paramTypes;
    out_.shadowParam.assign(p_.paramTypes.size(), -1);
    for (std::size_t i = 0; i < p_.paramTypes.size(); ++i)
      if (i < cfg_.activeArg.size() && cfg_.activeArg[i] &&
          ir::isPtr(p_.paramTypes[i])) {
        out_.shadowParam[i] = static_cast<int>(params.size());
        params.push_back(p_.paramTypes[i]);
      }
    out_.name = name;
    b_ = std::make_unique<ir::FunctionBuilder>(mod_, name, params, p_.retType);
    augMap_.assign((std::size_t)p_.numValues(), Value{});
    tanMap_.assign((std::size_t)p_.numValues(), Value{});
    shadowMap_.assign((std::size_t)p_.numValues(), Value{});
    for (std::size_t i = 0; i < p_.paramTypes.size(); ++i) {
      augMap_[(std::size_t)p_.body.args[i]] = b_->param(static_cast<int>(i));
      if (out_.shadowParam[i] >= 0)
        shadowMap_[(std::size_t)p_.body.args[i]] =
            b_->param(out_.shadowParam[i]);
    }
    emitRegion(p_.body);
    int rv = info_.returnedValue();
    if (p_.retType == Type::F64 && rv >= 0) {
      b_->ret(tan(rv));
    } else if (p_.retType != Type::Void && rv >= 0) {
      b_->ret(aug(rv));
    } else {
      b_->ret();
    }
    b_->finish();
    ir::verify(mod_, mod_.get(name));
    return out_;
  }

 private:
  Value aug(int v) const {
    Value x = augMap_[(std::size_t)v];
    PARAD_CHECK(x.valid(), "fwd: missing primal value %", v);
    return x;
  }
  /// Tangent of a value; inactive values have tangent zero.
  Value tan(int v) {
    Value x = tanMap_[(std::size_t)v];
    if (x.valid()) return x;
    Value z = b_->constF(0);
    tanMap_[(std::size_t)v] = z;
    return z;
  }
  Value shadow(int v) const {
    Value x = shadowMap_[(std::size_t)v];
    PARAD_CHECK(x.valid(), "fwd: missing shadow for pointer %", v);
    return x;
  }
  bool hasShadow(int v) const { return shadowMap_[(std::size_t)v].valid(); }
  bool varied(int v) const { return info_.varied(v); }
  bool variedPtr(int v) const { return info_.classVaried(info_.ptrClass(v)); }

  /// The tangent of an arithmetic result r: the sum of the op's derivative
  /// rules applied to its varied operands' tangents. Throws if op has none.
  Value tangent(const ir::Inst& in, Value r) {
    ir::IrRules m(*b_, [&](int k) {
      return k < 2 ? aug(in.operands[(std::size_t)k]) : r;
    });
    Value t;
    for (std::size_t i = 0; i < in.operands.size(); ++i) {
      if (!varied(in.operands[i])) continue;
      Value d = m.derivative(in.op, static_cast<int>(i), tan(in.operands[i]));
      t = t.valid() ? b_->fadd(t, d) : d;
    }
    return t;
  }

  void emitRegion(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) emitInst(in);
  }

  void emitInst(const ir::Inst& in) {
    auto A = [&](std::size_t i) { return aug(in.operands[i]); };
    auto T = [&](std::size_t i) { return tan(in.operands[i]); };
    auto setVal = [&](Value v) { augMap_[(std::size_t)in.result] = v; };
    auto setTan = [&](Value v) { tanMap_[(std::size_t)in.result] = v; };
    bool act = in.result >= 0 && p_.typeOf(in.result) == Type::F64 &&
               varied(in.result);

    switch (in.op) {
      case Op::Call:
      case Op::CallIndirect:
        fail("forward mode: calls must be inlined first (@", in.sym, ")");
      case Op::OmpParallelFor:
        fail("forward mode: lower the omp dialect first");
      case Op::Return:
        return;  // handled in run()

      case Op::Select: {
        Value v = b_->select(A(0), A(1), A(2));
        setVal(v);
        if (act) setTan(b_->select(A(0), T(1), T(2)));
        if (ir::isPtr(p_.typeOf(in.result)) &&
            hasShadow(in.operands[1]) && hasShadow(in.operands[2]))
          shadowMap_[(std::size_t)in.result] =
              b_->select(A(0), shadow(in.operands[1]), shadow(in.operands[2]));
        return;
      }

      // ---- memory ----
      case Op::Alloc: {
        Value count = A(0);
        setVal(b_->emitCloned(in, {count}, p_.typeOf(in.result)));
        if (info_.classVaried(analysis::PtrClass::allocClass(&in))) {
          Value sh = b_->alloc(count, static_cast<Type>(in.iconst),
                               ir::kFlagShadowAlloc);
          b_->memset0(sh, count);
          shadowMap_[(std::size_t)in.result] = sh;
        }
        return;
      }
      case Op::JlAllocArray: {
        Value count = A(0);
        setVal(b_->jlAllocArray(count));
        shadowMap_[(std::size_t)in.result] = b_->jlAllocArray(count);
        return;
      }
      case Op::Free:
        b_->free_(A(0));
        if (hasShadow(in.operands[0])) b_->free_(shadow(in.operands[0]));
        return;
      case Op::PtrOffset:
        setVal(b_->ptrOffset(A(0), A(1)));
        if (hasShadow(in.operands[0]))
          shadowMap_[(std::size_t)in.result] =
              b_->ptrOffset(shadow(in.operands[0]), A(1));
        return;
      case Op::Load: {
        Value v = b_->load(A(0), A(1));
        setVal(v);
        if (ir::isPtr(p_.typeOf(in.result))) {
          if (hasShadow(in.operands[0]))
            shadowMap_[(std::size_t)in.result] =
                b_->load(shadow(in.operands[0]), A(1));
        } else if (act && hasShadow(in.operands[0])) {
          setTan(b_->load(shadow(in.operands[0]), A(1)));
        }
        return;
      }
      case Op::Store:
        b_->store(A(0), A(1), A(2));
        if (ir::isPtr(p_.typeOf(in.operands[2]))) {
          if (hasShadow(in.operands[0]) && hasShadow(in.operands[2]))
            b_->store(shadow(in.operands[0]), A(1), shadow(in.operands[2]));
        } else if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]) &&
                   p_.typeOf(in.operands[2]) == Type::F64) {
          b_->store(shadow(in.operands[0]), A(1), T(2));
        }
        return;
      case Op::AtomicAddF:
        b_->atomicAddF(A(0), A(1), A(2));
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          b_->atomicAddF(shadow(in.operands[0]), A(1), T(2));
        return;
      case Op::Memset0:
        b_->memset0(A(0), A(1));
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          b_->memset0(shadow(in.operands[0]), A(1));
        return;

      // ---- structured control flow: same structure, dual body ----
      case Op::For:
        b_->emitFor(A(0), A(1), [&](Value iv) {
          augMap_[(std::size_t)in.regions[0].args[0]] = iv;
          emitRegion(in.regions[0]);
        });
        return;
      case Op::While:
        b_->emitWhile([&](Value iter) -> Value {
          augMap_[(std::size_t)in.regions[0].args[0]] = iter;
          const auto& insts = in.regions[0].insts;
          for (std::size_t k = 0; k + 1 < insts.size(); ++k)
            emitInst(insts[k]);
          return aug(insts.back().operands[0]);
        });
        return;
      case Op::Yield:
        PARAD_UNREACHABLE("yield outside while");
      case Op::If:
        b_->emitIf(
            A(0), [&] { emitRegion(in.regions[0]); },
            [&] { emitRegion(in.regions[1]); });
        return;
      case Op::ParallelFor:
        b_->emitParallelFor(A(0), A(1), [&](Value iv) {
          augMap_[(std::size_t)in.regions[0].args[0]] = iv;
          emitRegion(in.regions[0]);
        });
        return;
      case Op::Fork:
        b_->emitFork(A(0), [&](Value tid) {
          augMap_[(std::size_t)in.regions[0].args[0]] = tid;
          emitRegion(in.regions[0]);
        });
        return;
      case Op::Workshare:
        b_->emitWorkshare(A(0), A(1), [&](Value iv) {
          augMap_[(std::size_t)in.regions[0].args[0]] = iv;
          emitRegion(in.regions[0]);
        });
        return;
      case Op::Spawn:
        setVal(b_->spawn([&] { emitRegion(in.regions[0]); }));
        return;

      // ---- message passing: duplicated on the shadows ----
      case Op::MpIsend: {
        Value req = b_->mpIsend(A(0), A(1), A(2), A(3));
        setVal(req);
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          shadowReq_[in.result] = b_->mpIsend(
              shadow(in.operands[0]), A(1), A(2),
              b_->iadd(A(3), b_->constI(kTagShift)));
        return;
      }
      case Op::MpIrecv: {
        Value req = b_->mpIrecv(A(0), A(1), A(2), A(3));
        setVal(req);
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          shadowReq_[in.result] = b_->mpIrecv(
              shadow(in.operands[0]), A(1), A(2),
              b_->iadd(A(3), b_->constI(kTagShift)));
        return;
      }
      case Op::MpWaitOp: {
        b_->mpWait(A(0));
        auto it = shadowReq_.find(in.operands[0]);
        if (it != shadowReq_.end()) b_->mpWait(it->second);
        return;
      }
      case Op::MpSend:
        b_->mpSend(A(0), A(1), A(2), A(3));
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          b_->mpSend(shadow(in.operands[0]), A(1), A(2),
                     b_->iadd(A(3), b_->constI(kTagShift)));
        return;
      case Op::MpRecv:
        b_->mpRecv(A(0), A(1), A(2), A(3));
        if (variedPtr(in.operands[0]) && hasShadow(in.operands[0]))
          b_->mpRecv(shadow(in.operands[0]), A(1), A(2),
                     b_->iadd(A(3), b_->constI(kTagShift)));
        return;
      case Op::MpAllreduce: {
        auto kind = static_cast<ir::ReduceKind>(in.iconst);
        if (kind == ir::ReduceKind::Sum) {
          std::vector<Value> ops{A(0), A(1), A(2)};
          ir::Inst proto(Op::MpAllreduce);
          proto.iconst = in.iconst;
          b_->emitCloned(proto, ops, Type::Void);
          if (variedPtr(in.operands[1]) && hasShadow(in.operands[0]) &&
              hasShadow(in.operands[1])) {
            std::vector<Value> sops{shadow(in.operands[0]),
                                    shadow(in.operands[1]), A(2)};
            b_->emitCloned(proto, sops, Type::Void);
          }
          return;
        }
        // Min/Max: the tangent of the result is the winner's tangent; route
        // it with the winners buffer + a sum-allreduce of masked tangents.
        Value count = A(2);
        Value winners = b_->alloc(count, Type::I64);
        ir::Inst proto(Op::MpAllreduce);
        proto.iconst = in.iconst;
        b_->emitCloned(proto, {A(0), A(1), count, winners}, Type::Void);
        if (variedPtr(in.operands[1]) && hasShadow(in.operands[0]) &&
            hasShadow(in.operands[1])) {
          Value masked = b_->alloc(count, Type::F64);
          Value myRank = b_->mpRank();
          b_->emitFor(b_->constI(0), count, [&](Value k) {
            Value won = b_->ieq(b_->load(winners, k), myRank);
            Value tv = b_->load(shadow(in.operands[0]), k);
            b_->store(masked, k, b_->select(won, tv, b_->constF(0)));
          });
          ir::Inst sum(Op::MpAllreduce);
          sum.iconst = static_cast<i64>(ir::ReduceKind::Sum);
          b_->emitCloned(sum, {masked, shadow(in.operands[1]), count},
                         Type::Void);
          b_->free_(masked);
        }
        b_->free_(winners);
        return;
      }

      case Op::GcPreserveBegin: {
        std::vector<Value> ops;
        for (std::size_t i = 0; i < in.operands.size(); ++i) {
          ops.push_back(A(i));
          if (hasShadow(in.operands[i])) ops.push_back(shadow(in.operands[i]));
        }
        setVal(b_->gcPreserveBegin(ops));
        return;
      }

      // ---- everything else (arithmetic, ints, cmps, thread/rank queries,
      // sync...): the primal, then an f64 result's tangent ----
      default: {
        std::vector<Value> ops;
        for (std::size_t i = 0; i < in.operands.size(); ++i) ops.push_back(A(i));
        Type rt = in.result >= 0 ? p_.typeOf(in.result) : Type::Void;
        Value v = b_->emitCloned(in, ops, rt);
        if (in.result >= 0) setVal(v);
        if (act) setTan(tangent(in, v));
        return;
      }
    }
  }

  ir::Module& mod_;
  const ir::Function& p_;
  FwdConfig cfg_;
  FnInfo info_;
  std::unique_ptr<ir::FunctionBuilder> b_;
  FwdInfo out_;
  std::vector<Value> augMap_, tanMap_, shadowMap_;
  std::unordered_map<int, Value> shadowReq_;
};

}  // namespace

FwdInfo generateForward(ir::Module& mod, const std::string& fnName,
                        const FwdConfig& cfg) {
  const ir::Function& fn = mod.get(fnName);
  // Shadow messages reuse the primal tag plus a shift; primal tags must
  // stay below the (reverse-mode) bound so either engine can run.
  checkPrimalMpTags(fn);
  FwdGen gen(mod, fn, cfg);
  return gen.run();
}

}  // namespace parad::core
