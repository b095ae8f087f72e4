// Plan computation for the gradient pipeline. All *decisions* of the AD
// engine live here — accumulation kinds (§VI-A1), recompute-vs-cache
// strategies (§IV-C, §VI-B), SSA adjoint slot assignment, reduction-slot
// registration and the reversal of the parallelism DAG (§IV-A/B) — so they
// are testable in isolation, narratable as remarks, and countable by the
// ablation benches. No IR is created or mutated here; the emitters in
// emit_*.cpp execute the plan.
#include "src/core/plan.h"

#include <string>
#include <utility>

#include "src/core/remarks.h"
#include "src/ir/derivatives.h"
#include "src/ir/printer.h"

namespace parad::core {

using analysis::FnInfo;
using analysis::PtrClass;
using ir::Op;
using ir::OpEffect;
using ir::Type;

namespace {

void collectIntConsts(const ir::Region& r,
                      std::unordered_map<int, i64>& consts) {
  for (const ir::Inst& in : r.insts) {
    if (in.op == Op::ConstI && in.result >= 0) consts[in.result] = in.iconst;
    for (const ir::Region& sub : in.regions) collectIntConsts(sub, consts);
  }
}

void checkRegionMpTags(const ir::Region& r,
                       const std::unordered_map<int, i64>& consts,
                       const std::string& fnName) {
  for (const ir::Inst& in : r.insts) {
    switch (in.op) {
      case Op::MpIsend:
      case Op::MpIrecv:
      case Op::MpSend:
      case Op::MpRecv: {
        auto it = consts.find(in.operands[3]);
        if (it != consts.end() && it->second >= kAdjointTagShift)
          fail("cannot differentiate ", fnName, ": primal mp tag ", it->second,
               " on ", ir::traits(in.op).name,
               " is >= the adjoint tag shift ", kAdjointTagShift,
               " (2^20), so adjoint messages would collide with primal "
               "traffic; renumber primal tags below the shift");
        break;
      }
      default:
        break;
    }
    for (const ir::Region& sub : in.regions)
      checkRegionMpTags(sub, consts, fnName);
  }
}

}  // namespace

void checkPrimalMpTags(const ir::Function& fn) {
  std::unordered_map<int, i64> consts;
  collectIntConsts(fn.body, consts);
  checkRegionMpTags(fn.body, consts, fn.name);
}

const char* accumKindName(AccumKind k) {
  switch (k) {
    case AccumKind::Serial: return "serial";
    case AccumKind::ReductionSlot: return "reduction-slot";
    case AccumKind::Atomic: return "atomic";
  }
  return "?";
}

const char* accumWhyName(AccumWhy w) {
  switch (w) {
    case AccumWhy::SequentialContext: return "sequential context";
    case AccumWhy::ThreadLocal: return "thread-local destination";
    case AccumWhy::UniformLocation: return "uniform location across construct";
    case AccumWhy::Unproven: return "thread-locality unproven";
    case AccumWhy::ForcedAtomic: return "forced all-atomic";
    case AccumWhy::ParallelCaller: return "parallel caller";
  }
  return "?";
}

const char* cacheStrategyName(CacheStrategy s) {
  switch (s) {
    case CacheStrategy::Recompute: return "recompute";
    case CacheStrategy::FnLifetimeSlot: return "fn-lifetime-slot";
    case CacheStrategy::TripIndexedArray: return "trip-indexed-array";
    case CacheStrategy::DynamicArray: return "dynamic-array";
  }
  return "?";
}

const AccumDecision* GradPlan::accumForValue(int loadResult) const {
  for (const auto& [site, dec] : siteAccum)
    if (site->op == Op::Load && site->result == loadResult) return &dec;
  return nullptr;
}

AccumKind GradPlan::ssaSlotKind(int v, const ir::Inst* par) const {
  auto it = ssaAccum.find(v);
  PARAD_CHECK(it != ssaAccum.end(), "internal: no adjoint-slot plan for %", v);
  auto jt = it->second.find(par);
  PARAD_CHECK(jt != it->second.end(),
              "internal: adjoint-slot plan for %", v,
              " missing its parallel context");
  // The reduction-slot path is taken through the emitter's scope chain; the
  // queried kind is the fallback when no slot is in scope.
  return jt->second.fallback;
}

bool reEmittableOp(Op op) {
  OpEffect e = ir::traits(op).effect;
  return e == OpEffect::Const || e == OpEffect::Pure ||
         e == OpEffect::PureTrap || e == OpEffect::EnvRead;
}

bool isReEmittable(const FnInfo& info, const ir::Inst* d) {
  if (!d) return false;
  if (reEmittableOp(d->op)) return true;
  // A load may be replayed in the reverse pass iff nothing may have
  // overwritten the location (its class is never written).
  return d->op == Op::Load &&
         !info.classWritten(info.ptrClass(d->operands[0]));
}

bool topMaterializableOp(Op op) {
  const ir::OpTraits& t = ir::traits(op);
  // NumThreadsOp equals the default team size; sound for default-sized
  // forks (the only forks our frontends emit). See DESIGN.md known
  // deviations.
  if (t.effect == OpEffect::Const || op == Op::NumThreadsOp ||
      op == Op::Select)
    return true;
  // Integer index arithmetic: i64 operands, an i64 or i1 result.
  if (!t.typed ||
      (t.effect != OpEffect::Pure && t.effect != OpEffect::PureTrap))
    return false;
  for (int i = 0; i < t.numOperands(); ++i)
    if (t.operands[i] != Type::I64) return false;
  return t.result == Type::I64 || t.result == Type::I1;
}

bool isTopMaterializable(const FnInfo& info, int v) {
  if (info.depth(v) == 0) return true;
  const ir::Inst* d = info.defInst(v);
  if (!d) return false;  // region argument
  if (!topMaterializableOp(d->op)) return false;
  for (int o : d->operands)
    if (!isTopMaterializable(info, o)) return false;
  return true;
}

namespace {

/// Deterministic short name for a structured construct ("fork(%3)" names the
/// fork whose thread-id region argument is %3).
std::string ctxName(const ir::Inst* in) {
  if (!in) return "function scope";
  std::string s = ir::traits(in->op).name;
  int tag = -1;
  if (!in->regions.empty() && !in->regions[0].args.empty())
    tag = in->regions[0].args[0];
  else if (in->result >= 0)
    tag = in->result;
  if (tag >= 0) s += "(%" + std::to_string(tag) + ")";
  return s;
}

class Planner {
 public:
  Planner(const FnInfo& info, const GradConfig& cfg, RemarkStream* remarks)
      : info_(info), p_(info.fn()), cfg_(cfg), remarks_(remarks) {}

  GradPlan run() {
    // Primal tags must leave the adjoint tag space free (Fig. 5).
    checkPrimalMpTags(p_);

    // Slot-mode SSA adjoints: varied f64 values used across regions.
    for (int v = 0; v < p_.numValues(); ++v)
      if (p_.typeOf(v) == Type::F64 && varied(v) &&
          info_.usedAcrossRegions(v)) {
        plan_.slotMode.insert(v);
        plan_.slotIdx[v] = static_cast<i64>(plan_.slotIdx.size());
      }

    // Availability + cache strategy selection (and structural validation).
    planRegion(p_.body);

    // Reversal memo over every instruction + mirrored-construct records.
    sweepReversal(p_.body);

    // Reduction-slot entries for parallel constructs with reverse work.
    sweepReductions(p_.body);

    // Accumulation-kind decision per site.
    sweepAccum(p_.body);

    if (remarks_) {
      emitRemarks(p_.body);
      for (const AccumDecision& d : plan_.ssaAccumOrder)
        remark(RemarkKind::Accum,
               "adjoint slot %" + std::to_string(d.value) + " => " +
                   accumKindName(d.kind) + " (" + accumWhyName(d.why) +
                   ") in " + ctxName(d.parallel));
    }
    return std::move(plan_);
  }

 private:
  bool varied(int v) const { return info_.varied(v); }
  bool variedPtr(int v) const {
    return info_.classVaried(info_.ptrClass(v));
  }
  bool isRegionArgOf(int v, const ir::Inst* in) const {
    return info_.regionArgOwner(v) == in;
  }
  bool definedOutside(int v, const ir::Inst& par) const {
    return !info_.definedInside(v, &par) && !isRegionArgOf(v, &par);
  }

  /// Value is the same for every thread/iteration of `par`: defined outside,
  /// or a pure thread-independent expression of invariant values.
  bool isInvariantIn(int v, const ir::Inst& par) const {
    if (definedOutside(v, par)) return true;
    const ir::Inst* d = info_.defInst(v);
    if (!d) return false;  // region arg of par or something inside it
    switch (d->op) {
      case Op::ThreadIdOp:
        return false;
      case Op::Load:
        if (info_.classWritten(info_.ptrClass(d->operands[0]))) return false;
        break;
      default:
        if (!isReEmittable(info_, d)) return false;
        break;
    }
    for (int o : d->operands)
      if (!isInvariantIn(o, par)) return false;
    return true;
  }

  void remark(RemarkKind k, std::string msg) {
    if (remarks_) remarks_->emit(k, std::move(msg));
  }
  void noteError(std::string msg) {
    if (plan_.firstError.empty()) plan_.firstError = std::move(msg);
  }

  /// Innermost parallel construct enclosing `in` in the primal: Fork,
  /// ParallelFor or Spawn (Workshare does not open a parallel context of its
  /// own; it lives inside a Fork).
  const ir::Inst* parallelCtx(const ir::Inst* in) const {
    auto chain = info_.enclosingChain(info_.instRegion(in));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      switch ((*it)->op) {
        case Op::Fork:
        case Op::ParallelFor:
        case Op::Spawn:
          return *it;
        default:
          break;
      }
    return nullptr;
  }

  // ===================== cache plan =====================

  std::string cacheReason(int v) const {
    const ir::Inst* d = info_.defInst(v);
    if (!d) return "value has no re-emittable definition";
    if (d->op == Op::Load) return "load from a location that may be overwritten";
    return std::string(ir::traits(d->op).name) + " is not re-emittable";
  }

  CacheDecision& markCache(int v,
                           std::unordered_map<int, CacheDecision>& table) {
    auto it = table.find(v);
    if (it != table.end()) return it->second;
    CacheDecision rec;
    Type t = p_.typeOf(v);
    switch (t) {
      case Type::F64: rec.storeTy = Type::F64; break;
      case Type::I64: rec.storeTy = Type::I64; break;
      case Type::I1: rec.storeTy = Type::I64; rec.fromI1 = true; break;
      case Type::PtrF64: rec.storeTy = Type::PtrF64; break;
      default:
        fail("AD: value %", v, " of type ", ir::typeName(t),
             " must be preserved for the reverse pass but is not cacheable");
    }
    const ir::Region* r = info_.defRegion(v);
    rec.dims = info_.cacheDims(r);
    rec.strategy = CacheStrategy::TripIndexedArray;
    for (const ir::Inst* dim : rec.dims)
      if (dim->op == Op::While) {
        rec.strategy = CacheStrategy::DynamicArray;
        rec.supported = false;
        noteError(
            "AD: caching a value under a while loop (dynamic trip count) "
            "is unsupported; restructure as a counted loop");
      }
    auto chain = info_.enclosingChain(r);
    PARAD_CHECK(!chain.empty(), "internal: cache at top level");
    rec.anchor = chain.front();
    // Dim bounds must be materializable at the top level.
    auto checkTop = [&](int bv) {
      if (!isTopMaterializable(info_, bv)) {
        rec.supported = false;
        noteError(
            "AD: loop bound of a cached region is not available at "
            "function scope (non-rectangular loop nest)");
      }
    };
    for (const ir::Inst* dim : rec.dims) {
      if (dim->op == Op::While) continue;  // no bound operands
      checkTop(dim->operands[0]);
      if (dim->op != Op::Fork) checkTop(dim->operands[1]);
    }
    rec.reason = cacheReason(v);
    plan_.numCachedValues++;
    if (rec.strategy == CacheStrategy::DynamicArray)
      plan_.counts.cacheDynArrays++;
    else
      plan_.counts.cacheTripArrays++;
    return table.emplace(v, std::move(rec)).first->second;
  }

  void ensureAvailable(int v) {
    if (!available_.insert(v).second) return;
    if (info_.isRegionArg(v)) {
      const ir::Inst* owner = info_.regionArgOwner(v);
      if (!owner) return;  // function parameter
      switch (owner->op) {
        case Op::For: case Op::While: case Op::ParallelFor:
        case Op::Workshare: case Op::Fork:
          return;  // mapped by the reverse scope chain
        default:
          fail("AD: region argument of unsupported construct needed in "
               "reverse");
      }
    }
    if (info_.depth(v) == 0) {
      // Function-scope value: its SSA slot lives for the whole gradient.
      if (info_.defInst(v) != nullptr &&
          plan_.caches.emplace(v, CacheDecision{CacheStrategy::FnLifetimeSlot,
                                                Type::F64, false, {}, nullptr,
                                                -1, std::string(), true})
              .second)
        plan_.counts.cacheFnSlots++;
      return;
    }
    const ir::Inst* d = info_.defInst(v);
    if (isReEmittable(info_, d)) {
      if (plan_.caches
              .emplace(v, CacheDecision{CacheStrategy::Recompute, Type::F64,
                                        false, {}, nullptr, -1, std::string(),
                                        true})
              .second)
        plan_.counts.cacheRecompute++;
      for (int o : d->operands) ensureAvailable(o);
      return;
    }
    markCache(v, plan_.caches);
  }

  void ensureShadowAvailable(int v) {
    if (!shadowAvailable_.insert(v).second) return;
    const ir::Inst* d = info_.defInst(v);
    if (d == nullptr) {
      // Function parameter (covered by a shadow parameter) — pointer-typed
      // region arguments cannot occur after omp lowering.
      PARAD_CHECK(info_.regionArgOwner(v) == nullptr,
                  "AD: pointer region arguments are unsupported (lower omp "
                  "first)");
      return;
    }
    if (info_.depth(v) == 0) {
      // Shadow emitted at top level during aug; still recurse so the aug
      // pass knows to build shadows for the whole pointer chain.
      switch (d->op) {
        case Op::PtrOffset:
          ensureShadowAvailable(d->operands[0]);
          break;
        case Op::Load:
          ensureShadowAvailable(d->operands[0]);
          break;
        case Op::Select:
          ensureShadowAvailable(d->operands[1]);
          ensureShadowAvailable(d->operands[2]);
          break;
        default:
          break;
      }
      return;
    }
    switch (d->op) {
      case Op::PtrOffset:
        ensureShadowAvailable(d->operands[0]);
        ensureAvailable(d->operands[1]);
        return;
      case Op::Load:  // boxed-array data pointer
        ensureShadowAvailable(d->operands[0]);
        ensureAvailable(d->operands[1]);
        return;
      case Op::Select:
        ensureAvailable(d->operands[0]);
        ensureShadowAvailable(d->operands[1]);
        ensureShadowAvailable(d->operands[2]);
        return;
      case Op::Alloc:
        PARAD_CHECK(static_cast<Type>(d->iconst) == Type::F64,
                    "AD: differentiable non-f64 allocation inside a loop");
        markCache(v, plan_.shadowCaches);
        markCache(v, plan_.caches);
        return;
      default:
        fail("AD: cannot provide shadow for pointer defined by ",
             ir::traits(d->op).name, " inside a loop");
    }
  }

  // ===================== reversal plan =====================

  bool regionHasReverseWork(const ir::Region& r) {
    for (const ir::Inst& in : r.insts)
      if (hasReverseWork(in)) return true;
    return false;
  }

  bool hasReverseWork(const ir::Inst& in) {
    auto it = plan_.reversal.reverseWork.find(&in);
    if (it != plan_.reversal.reverseWork.end()) return it->second != 0;
    bool w = false;
    switch (in.op) {
      case Op::Store:
      case Op::AtomicAddF:
      case Op::Memset0:
        w = variedPtr(in.operands[0]);
        break;
      case Op::MpIsend: case Op::MpSend:
        w = variedPtr(in.operands[0]);
        break;
      case Op::MpIrecv: case Op::MpRecv:
        w = variedPtr(in.operands[0]);
        break;
      case Op::MpWaitOp: {
        const ir::Inst* d = info_.defInst(in.operands[0]);
        w = d && variedPtr(d->operands[0]);
        break;
      }
      case Op::MpAllreduce:
        w = variedPtr(in.operands[1]) || variedPtr(in.operands[0]);
        break;
      case Op::MpBarrier:
      case Op::BarrierOp:
        w = true;  // barriers are mirrored to order the reversed segments
        break;
      case Op::SyncOp: {
        // The reverse of sync spawns the adjoint task; needed iff the
        // spawned body has reverse work.
        const ir::Inst* d = info_.defInst(in.operands[0]);
        w = d != nullptr && hasReverseWork(*d);
        break;
      }
      case Op::GcPreserveBegin:
      case Op::GcPreserveEnd:
        w = true;
        break;
      case Op::Return:
        w = !in.operands.empty() && varied(in.operands[0]);
        break;
      default:
        if (in.result >= 0 && p_.typeOf(in.result) == Type::F64 &&
            varied(in.result))
          w = true;
        break;
    }
    if (!w)
      for (const ir::Region& r : in.regions)
        if (regionHasReverseWork(r)) {
          w = true;
          break;
        }
    plan_.reversal.reverseWork[&in] = w ? 1 : 0;
    return w;
  }

  void sweepReversal(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) {
      if (hasReverseWork(in)) {
        switch (in.op) {
          case Op::ParallelFor:
          case Op::Fork:
          case Op::Spawn:
            plan_.counts.mirroredParallel++;
            break;
          case Op::While:
            plan_.reversal.whileLoops.push_back(&in);
            plan_.counts.whileTrips++;
            break;
          case Op::MpWaitOp: {
            const ir::Inst* d = info_.defInst(in.operands[0]);
            if (d) plan_.reversal.waitPairs[&in] = d;
            plan_.counts.mirroredMp++;
            break;
          }
          case Op::MpSend: case Op::MpRecv:
          case Op::MpAllreduce: case Op::MpBarrier:
            plan_.counts.mirroredMp++;
            break;
          default:
            break;
        }
      }
      for (const ir::Region& sub : in.regions) sweepReversal(sub);
    }
  }

  // ===================== planning walk =====================

  void planRegion(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) planInst(in);
  }

  void planInst(const ir::Inst& in) {
    auto req = [&](int v) { ensureAvailable(v); };
    auto reqShadow = [&](int v) { ensureShadowAvailable(v); };
    bool resVaried = in.result >= 0 && p_.typeOf(in.result) == Type::F64 &&
                     varied(in.result);
    switch (in.op) {
      case Op::Call:
      case Op::CallIndirect:
        fail("AD: calls must be inlined before differentiation (@", in.sym,
             ")");
      case Op::OmpParallelFor:
        fail("AD: lower the omp dialect before differentiation");
      case Op::Select:
        if (resVaried) req(in.operands[0]);
        break;
      case Op::Load:
        if (resVaried) {
          reqShadow(in.operands[0]);
          req(in.operands[1]);
        }
        break;
      case Op::Store:
        if (variedPtr(in.operands[0])) {
          reqShadow(in.operands[0]);
          req(in.operands[1]);
          // Pointer stores must mirror into the shadow descriptor during
          // aug.
          if (ir::isPtr(p_.typeOf(in.operands[2])))
            reqShadow(in.operands[2]);
        }
        break;
      case Op::AtomicAddF:
        if (variedPtr(in.operands[0])) {
          reqShadow(in.operands[0]);
          req(in.operands[1]);
        }
        break;
      case Op::Memset0:
        if (variedPtr(in.operands[0])) {
          reqShadow(in.operands[0]);
          req(in.operands[1]);
        }
        break;
      case Op::Alloc:
        if (info_.classVaried(PtrClass::allocClass(&in))) {
          PARAD_CHECK(static_cast<Type>(in.iconst) != Type::PtrF64,
                      "AD: differentiable pointer-holding allocation "
                      "unsupported (use jl.alloc.array)");
        }
        break;
      case Op::JlAllocArray:
        PARAD_CHECK(info_.depth(in.result) == 0,
                    "AD: boxed-array allocation inside a loop is unsupported");
        break;
      case Op::For:
      case Op::ParallelFor:
      case Op::Workshare:
        if (hasReverseWork(in)) { req(in.operands[0]); req(in.operands[1]); }
        break;
      case Op::Fork:
        if (hasReverseWork(in)) req(in.operands[0]);
        break;
      case Op::If:
        if (hasReverseWork(in)) req(in.operands[0]);
        break;
      case Op::While:
        break;  // trip count recorded in a dedicated slot during aug
      case Op::MpIsend:
      case Op::MpSend:
        if (variedPtr(in.operands[0])) {
          reqShadow(in.operands[0]);
          req(in.operands[1]); req(in.operands[2]); req(in.operands[3]);
        }
        break;
      case Op::MpIrecv:
      case Op::MpRecv:
        if (variedPtr(in.operands[0])) {
          reqShadow(in.operands[0]);
          req(in.operands[1]); req(in.operands[2]); req(in.operands[3]);
        }
        break;
      case Op::MpWaitOp: {
        const ir::Inst* d = info_.defInst(in.operands[0]);
        PARAD_CHECK(d && (d->op == Op::MpIsend || d->op == Op::MpIrecv),
                    "AD: wait request must be defined by isend/irecv in the "
                    "same function");
        PARAD_CHECK(info_.instRegion(d) == info_.instRegion(&in),
                    "AD: wait must be in the same region as its isend/irecv");
        break;
      }
      case Op::MpAllreduce: {
        bool recvVaried = variedPtr(in.operands[1]);
        if (recvVaried) {
          reqShadow(in.operands[1]);
          req(in.operands[2]);
          if (variedPtr(in.operands[0])) reqShadow(in.operands[0]);
          auto kind = static_cast<ir::ReduceKind>(in.iconst);
          if (kind != ir::ReduceKind::Sum) {
            // Winner-rank cache: one i64 per element per execution.
            CacheDecision rec;
            rec.storeTy = Type::I64;
            rec.dims = info_.cacheDims(info_.instRegion(&in));
            rec.extraCountValue = in.operands[2];
            auto chain = info_.enclosingChain(info_.instRegion(&in));
            rec.anchor = chain.empty() ? nullptr : chain.front();
            rec.strategy = rec.dims.empty()
                               ? CacheStrategy::FnLifetimeSlot
                               : CacheStrategy::TripIndexedArray;
            rec.reason =
                "winning rank per element routes the min/max adjoint";
            if (rec.dims.empty())
              plan_.counts.cacheFnSlots++;
            else
              plan_.counts.cacheTripArrays++;
            plan_.winnerCaches.emplace(&in, std::move(rec));
            req(in.operands[2]);
          }
        }
        break;
      }
      case Op::SyncOp: {
        const ir::Inst* d = info_.defInst(in.operands[0]);
        PARAD_CHECK(d && d->op == Op::Spawn,
                    "AD: sync operand must be a spawn in the same function");
        PARAD_CHECK(info_.instRegion(d) == info_.instRegion(&in),
                    "AD: sync must be in the same region as its spawn");
        break;
      }
      case Op::GcPreserveBegin:
        for (int o : in.operands)
          if (variedPtr(o)) reqShadow(o);
        break;
      case Op::Return:
        break;  // the seed is applied through the adjoint register/slot

      default:
        // Arithmetic: what each varied operand's derivative rule reads.
        if (resVaried && ir::hasDerivative(in.op))
          for (std::size_t i = 0; i < in.operands.size(); ++i) {
            if (!varied(in.operands[i])) continue;
            unsigned reads = ir::derivativeReads(in.op, static_cast<int>(i));
            if (reads & ir::kReadA) req(in.operands[0]);
            if (reads & ir::kReadB) req(in.operands[1]);
            if (reads & ir::kReadR) req(in.result);
          }
        break;
    }
    for (const ir::Region& r : in.regions) planRegion(r);
  }

  // ===================== reduction-slot plan =====================

  void collectWrittenInside(const ir::Region& r,
                            std::unordered_set<std::size_t>& out) {
    for (const ir::Inst& in : r.insts) {
      switch (in.op) {
        case Op::Store:
        case Op::AtomicAddF:
        case Op::Memset0:
        case Op::MpIrecv:
        case Op::MpRecv:
          out.insert(info_.ptrClass(in.operands[0]).key());
          break;
        case Op::MpAllreduce:
          out.insert(info_.ptrClass(in.operands[1]).key());
          break;
        default:
          break;
      }
      for (const ir::Region& sub : in.regions) collectWrittenInside(sub, out);
    }
  }

  void collectReductions(const ir::Region& r, const ir::Inst& par,
                         std::vector<RedEntry>& out,
                         std::unordered_set<const void*>& seenLoads,
                         std::unordered_set<int>& seenSsa,
                         const std::unordered_set<std::size_t>& writtenInside) {
    for (const ir::Inst& in : r.insts) {
      // Per-thread reduction slots are only sound for locations the
      // construct never writes: a written location's shadow participates in
      // a read-zero-restore chain that must stay in place.
      if (in.op == Op::Load && in.result >= 0 &&
          p_.typeOf(in.result) == Type::F64 && varied(in.result) &&
          !writtenInside.count(info_.ptrClass(in.operands[0]).key()) &&
          info_.ptrClass(in.operands[0]).kind != PtrClass::Kind::Unknown &&
          isInvariantIn(in.operands[0], par) &&
          isInvariantIn(in.operands[1], par)) {
        if (seenLoads.insert(&in).second) {
          RedEntry e;
          e.load = &in;
          out.push_back(e);
        }
      }
      // SSA slot-mode values defined outside the construct but used inside.
      for (int o : in.operands)
        if (p_.typeOf(o) == Type::F64 && varied(o) &&
            plan_.slotMode.count(o) && definedOutside(o, par) &&
            seenSsa.insert(o).second) {
          RedEntry e;
          e.ssaValue = o;
          out.push_back(e);
        }
      for (const ir::Region& sub : in.regions)
        collectReductions(sub, par, out, seenLoads, seenSsa, writtenInside);
    }
  }

  std::vector<RedEntry> scanReductions(const ir::Inst& par) {
    std::vector<RedEntry> out;
    if (!cfg_.enableReductionSlots || cfg_.allAtomic) return out;
    std::unordered_set<const void*> seenLoads;
    std::unordered_set<int> seenSsa;
    std::unordered_set<std::size_t> writtenInside;
    for (const ir::Region& r : par.regions)
      collectWrittenInside(r, writtenInside);
    for (const ir::Region& r : par.regions)
      collectReductions(r, par, out, seenLoads, seenSsa, writtenInside);
    return out;
  }

  void sweepReductions(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) {
      if ((in.op == Op::ParallelFor || in.op == Op::Fork) &&
          plan_.reversal.hasReverseWork(&in))
        plan_.reductions.emplace(&in, scanReductions(in));
      for (const ir::Region& sub : in.regions) sweepReductions(sub);
    }
  }

  // ===================== accumulation plan =====================

  /// Innermost parallel construct whose reduction-slot entries cover `load`.
  const ir::Inst* loadReductionOwner(const ir::Inst& load) const {
    auto chain = info_.enclosingChain(info_.instRegion(&load));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      auto jt = plan_.reductions.find(*it);
      if (jt == plan_.reductions.end()) continue;
      for (const RedEntry& e : jt->second)
        if (e.load == &load) return *it;
    }
    return nullptr;
  }

  /// Innermost parallel construct whose entries cover ssa value v at `use`.
  const ir::Inst* ssaReductionOwner(const ir::Inst& use, int v) const {
    auto chain = info_.enclosingChain(info_.instRegion(&use));
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      auto jt = plan_.reductions.find(*it);
      if (jt == plan_.reductions.end()) continue;
      for (const RedEntry& e : jt->second)
        if (e.load == nullptr && e.ssaValue == v) return *it;
    }
    return nullptr;
  }

  /// Shadow-memory accumulation kind for pointer `ptrId` in parallel
  /// context `par` — the §VI-A1 decision ladder minus the reduction slots.
  AccumDecision memAccum(int ptrId, const ir::Inst* par) const {
    AccumDecision d;
    d.value = ptrId;
    d.parallel = par;
    if (cfg_.allAtomic) {
      d.kind = AccumKind::Atomic;
      d.why = AccumWhy::ForcedAtomic;
    } else if (par) {
      PtrClass cls = info_.ptrClass(ptrId);
      bool threadLocal =
          (cls.kind == PtrClass::Kind::AllocSite ||
           cls.kind == PtrClass::Kind::JlData) &&
          cls.site && cls.site->result >= 0 &&
          info_.definedInside(cls.site->result, par);
      d.kind = threadLocal ? AccumKind::Serial : AccumKind::Atomic;
      d.why = threadLocal ? AccumWhy::ThreadLocal : AccumWhy::Unproven;
    } else {
      PtrClass cls = info_.ptrClass(ptrId);
      bool atomic = cfg_.parallelCaller && cls.kind == PtrClass::Kind::Arg;
      d.kind = atomic ? AccumKind::Atomic : AccumKind::Serial;
      d.why = atomic ? AccumWhy::ParallelCaller : AccumWhy::SequentialContext;
    }
    d.fallback = d.kind;
    return d;
  }

  void countAccum(const AccumDecision& d) {
    switch (d.kind) {
      case AccumKind::Serial: plan_.counts.accumSerial++; break;
      case AccumKind::ReductionSlot: plan_.counts.accumReductionSlot++; break;
      case AccumKind::Atomic: plan_.counts.accumAtomic++; break;
    }
  }

  void recordSite(AccumDecision d) {
    countAccum(d);
    plan_.siteAccum.emplace(d.site, std::move(d));
  }

  /// Values this instruction's adjoint contributes into (mirrors the
  /// adjointAdd calls of the reverse emitter): every operand of an op with
  /// a derivative rule (src/ir/derivatives.h), and the f64 operands below.
  std::vector<int> adjointTargets(const ir::Inst& in) const {
    switch (in.op) {
      case Op::Select:
        if (in.result >= 0 && p_.typeOf(in.result) == Type::F64)
          return {in.operands[1], in.operands[2]};
        return {};
      case Op::Store:
        if (variedPtr(in.operands[0]) &&
            p_.typeOf(in.operands[2]) == Type::F64)
          return {in.operands[2]};
        return {};
      case Op::AtomicAddF:
        if (variedPtr(in.operands[0])) return {in.operands[2]};
        return {};
      case Op::Return:
        if (!in.operands.empty()) return {in.operands[0]};
        return {};
      default:
        if (ir::hasDerivative(in.op)) return in.operands;
        return {};
    }
  }

  void sweepAccum(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) {
      accumForInst(in);
      for (const ir::Region& sub : in.regions) sweepAccum(sub);
    }
  }

  void accumForInst(const ir::Inst& in) {
    if (!plan_.reversal.hasReverseWork(&in)) return;
    const ir::Inst* par = parallelCtx(&in);
    switch (in.op) {
      case Op::Load: {
        if (in.result < 0 || p_.typeOf(in.result) != Type::F64 ||
            !varied(in.result))
          break;
        AccumDecision d = memAccum(in.operands[0], par);
        if (const ir::Inst* owner = loadReductionOwner(in)) {
          d.kind = AccumKind::ReductionSlot;
          d.why = AccumWhy::UniformLocation;
          d.parallel = owner;
        }
        d.site = &in;
        recordSite(std::move(d));
        break;
      }
      case Op::MpIsend:
      case Op::MpSend: {
        if (!variedPtr(in.operands[0])) break;
        AccumDecision d = memAccum(in.operands[0], par);
        d.site = &in;
        recordSite(std::move(d));
        break;
      }
      case Op::MpAllreduce: {
        if (!variedPtr(in.operands[1]) || !variedPtr(in.operands[0])) break;
        AccumDecision d = memAccum(in.operands[0], par);
        d.site = &in;
        recordSite(std::move(d));
        break;
      }
      default:
        break;
    }
    // SSA adjoint-slot contributions from this instruction's reversal.
    for (int v : adjointTargets(in)) {
      if (!varied(v) || !plan_.slotMode.count(v)) continue;
      auto& perCtx = plan_.ssaAccum[v];
      if (perCtx.count(par)) continue;
      AccumDecision d;
      d.value = v;
      d.site = &in;
      d.parallel = par;
      bool atomic = cfg_.allAtomic ||
                    (par != nullptr && !info_.definedInside(v, par) &&
                     !isRegionArgOf(v, par));
      d.kind = atomic ? AccumKind::Atomic : AccumKind::Serial;
      d.why = cfg_.allAtomic
                  ? AccumWhy::ForcedAtomic
                  : (atomic ? AccumWhy::Unproven
                            : (par ? AccumWhy::ThreadLocal
                                   : AccumWhy::SequentialContext));
      d.fallback = d.kind;
      if (ssaReductionOwner(in, v) != nullptr) {
        d.kind = AccumKind::ReductionSlot;
        d.why = AccumWhy::UniformLocation;
      }
      countAccum(d);
      perCtx.emplace(par, d);
      plan_.ssaAccumOrder.push_back(d);
    }
  }

  // ===================== remarks =====================

  std::string summ(const ir::Inst& in) const { return ir::summarize(p_, in); }

  void cacheRemark(const ir::Inst& in, const CacheDecision& cd,
                   const char* what) {
    std::string msg = std::string("preserve ") + what + " of [" + summ(in) +
                      "] => " + cacheStrategyName(cd.strategy);
    if (!cd.dims.empty()) {
      msg += "[";
      for (std::size_t i = 0; i < cd.dims.size(); ++i) {
        if (i) msg += ", ";
        msg += ctxName(cd.dims[i]);
      }
      msg += "]";
    }
    if (!cd.reason.empty()) msg += " — " + cd.reason;
    if (!cd.supported) msg += " (unsupported by the emitter)";
    remark(RemarkKind::Cache, std::move(msg));
  }

  void emitRemarks(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) {
      if (plan_.reversal.hasReverseWork(&in)) {
        switch (in.op) {
          case Op::ParallelFor:
            remark(RemarkKind::Reversal,
                   ctxName(&in) +
                       " => fork + workshare over the same range, "
                       "per-thread chunks reversed");
            break;
          case Op::Fork:
            remark(RemarkKind::Reversal,
                   ctxName(&in) + " => mirrored fork, segments reversed");
            break;
          case Op::Spawn:
            remark(RemarkKind::Reversal,
                   ctxName(&in) + " => sync of the adjoint task at the "
                                  "mirrored position");
            break;
          case Op::SyncOp:
            remark(RemarkKind::Reversal,
                   "sync(%" + std::to_string(in.operands[0]) +
                       ") => spawn of the adjoint task");
            break;
          case Op::While:
            remark(RemarkKind::Reversal,
                   ctxName(&in) +
                       " => counted reverse loop over the recorded trip");
            break;
          case Op::MpWaitOp: {
            auto it = plan_.reversal.waitPairs.find(&in);
            if (it != plan_.reversal.waitPairs.end()) {
              const ir::Inst* d = it->second;
              remark(RemarkKind::Reversal,
                     std::string("wait(%") + std::to_string(in.operands[0]) +
                         ") on " +
                         (d->op == Op::MpIsend ? "isend" : "irecv") +
                         " => shadow request issues the matching " +
                         (d->op == Op::MpIsend ? "irecv" : "isend"));
            }
            break;
          }
          case Op::MpAllreduce:
            remark(RemarkKind::Reversal,
                   std::string("allreduce => allreduce(sum) of the output "
                               "shadows") +
                       (plan_.winnerCaches.count(&in)
                            ? ", adjoint routed to the cached winning rank"
                            : ""));
            break;
          default:
            break;
        }
      }
      if (in.result >= 0) {
        if (const CacheDecision* cd = plan_.cacheFor(in.result))
          cacheRemark(in, *cd, "value");
        if (const CacheDecision* sd = plan_.shadowCacheFor(in.result))
          cacheRemark(in, *sd, "shadow");
      }
      if (auto wc = plan_.winnerCaches.find(&in);
          wc != plan_.winnerCaches.end())
        cacheRemark(in, wc->second, "winners");
      if (const AccumDecision* ad = plan_.accumFor(&in))
        remark(RemarkKind::Accum,
               "[" + summ(in) + "] => " + accumKindName(ad->kind) + " (" +
                   accumWhyName(ad->why) + ") in " + ctxName(ad->parallel));
      for (const ir::Region& sub : in.regions) emitRemarks(sub);
    }
  }

  // ===================== state =====================

  const FnInfo& info_;
  const ir::Function& p_;
  GradConfig cfg_;
  RemarkStream* remarks_;
  GradPlan plan_;
  std::unordered_set<int> available_;
  std::unordered_set<int> shadowAvailable_;
};

}  // namespace

GradPlan computeGradPlan(const FnInfo& info, const GradConfig& cfg,
                         RemarkStream* remarks) {
  return Planner(info, cfg, remarks).run();
}

GradPlan planGradient(const ir::Module& mod, const std::string& fnName,
                      const GradConfig& cfg, RemarkStream* remarks) {
  const ir::Function& fn = mod.get(fnName);
  FnInfo info(fn, cfg.activeArg);
  return computeGradPlan(info, cfg, remarks ? remarks : cfg.remarks);
}

}  // namespace parad::core
