// Reverse pass: walks the mirrored region tree (instructions in reverse
// order, loops with reversed iteration, ParallelFor as fork + reversed-chunk
// workshare, spawn<->sync swapped) and emits adjoint arithmetic. Every
// accumulation executes the kind the plan selected for its site (serial /
// reduction slot / atomic, §VI-A1); every primal value is recovered the way
// its CacheDecision dictates (recompute / slot / cache array load).
#include "src/core/grad_internal.h"
#include "src/ir/derivatives.h"

namespace parad::core::detail {

Value GradGen::cacheIndexRev(const CacheState& st, RevScope& scope) {
  Value lin = b_->constI(0);
  const auto& dims = st.dec->dims;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    const ir::Inst* dim = dims[k];
    Value di;
    for (RevScope* sc = &scope; sc; sc = sc->parent)
      if (sc->inst == dim) {
        di = sc->dimIndex;
        break;
      }
    PARAD_CHECK(di.valid(), "internal: cache dim not in reverse scope");
    lin = b_->iadd(b_->imul(lin, st.sizes[k]), di);
  }
  return lin;
}

Value GradGen::resolve(int v, RevScope& scope) {
  for (RevScope* sc = &scope; sc; sc = sc->parent) {
    auto it = sc->memo.find(v);
    if (it != sc->memo.end()) return it->second;
  }
  if (info_.isRegionArg(v)) {
    const ir::Inst* owner = info_.regionArgOwner(v);
    if (!owner) return aug(v);  // function parameter
    for (RevScope* sc = &scope; sc; sc = sc->parent)
      if (sc->inst == owner) return sc->primalIter;
    fail("internal: region arg %", v, " not mapped in reverse scope");
  }
  if (info_.depth(v) == 0) return aug(v);
  if (auto it = caches_.find(v); it != caches_.end()) {
    CacheState& st = it->second;
    Value raw = b_->load(st.array, cacheIndexRev(st, scope));
    Value out = st.dec->fromI1 ? b_->ine(raw, b_->constI(0)) : raw;
    scope.memo.emplace(v, out);
    return out;
  }
  const ir::Inst* d = info_.defInst(v);
  PARAD_CHECK(d && isReEmittable(info_, d), "internal: value %", v,
              " neither cached nor re-emittable");
  Value out;
  if (d->op == Op::ThreadIdOp) {
    const ir::Inst* fork = nullptr;
    for (RevScope* sc = &scope; sc; sc = sc->parent)
      if (sc->inst && sc->inst->op == Op::Fork) {
        out = sc->primalIter;
        fork = sc->inst;
        break;
      }
    PARAD_CHECK(fork, "thread.id outside fork in reverse");
  } else {
    std::vector<Value> ops;
    ops.reserve(d->operands.size());
    for (int o : d->operands) ops.push_back(resolve(o, scope));
    out = b_->emitCloned(*d, ops, p_.typeOf(v));
  }
  scope.memo.emplace(v, out);
  return out;
}

Value GradGen::resolveShadow(int v, RevScope& scope) {
  for (RevScope* sc = &scope; sc; sc = sc->parent) {
    auto it = sc->shadowMemo.find(v);
    if (it != sc->shadowMemo.end()) return it->second;
  }
  if (info_.isRegionArg(v)) return shadowAug(v);  // shadow parameter
  if (info_.depth(v) == 0) return shadowAug(v);
  if (auto it = shadowCaches_.find(v); it != shadowCaches_.end()) {
    CacheState& st = it->second;
    Value out = b_->load(st.array, cacheIndexRev(st, scope));
    scope.shadowMemo.emplace(v, out);
    return out;
  }
  const ir::Inst* d = info_.defInst(v);
  PARAD_CHECK(d, "internal: no def for shadow request");
  Value out;
  switch (d->op) {
    case Op::PtrOffset:
      out = b_->ptrOffset(resolveShadow(d->operands[0], scope),
                          resolve(d->operands[1], scope));
      break;
    case Op::Load:
      out = b_->load(resolveShadow(d->operands[0], scope),
                     resolve(d->operands[1], scope));
      break;
    case Op::Select:
      out = b_->select(resolve(d->operands[0], scope),
                       resolveShadow(d->operands[1], scope),
                       resolveShadow(d->operands[2], scope));
      break;
    default:
      fail("internal: cannot resolve shadow of ", ir::traits(d->op).name);
  }
  scope.shadowMemo.emplace(v, out);
  return out;
}

void GradGen::adjointAdd(int v, Value contrib, RevScope& scope) {
  if (!varied(v)) return;
  if (plan_.slotMode.count(v)) {
    // Per-thread reduction slot available?
    for (RevScope* sc = &scope; sc; sc = sc->parent)
      if (sc->ssaSlots) {
        auto it = sc->ssaSlots->find(v);
        if (it != sc->ssaSlots->end()) {
          serialAdd(it->second, b_->constI(0), contrib);
          return;
        }
      }
    Value idx = b_->constI(plan_.slotIdx.at(v));
    if (plan_.ssaSlotKind(v, scope.parallel) == AccumKind::Atomic)
      b_->atomicAddF(slotArray_, idx, contrib);
    else
      serialAdd(slotArray_, idx, contrib);
    return;
  }
  auto it = adjReg_.find(v);
  if (it == adjReg_.end())
    adjReg_.emplace(v, contrib);
  else
    it->second = b_->fadd(it->second, contrib);
}

Value GradGen::consumeAdjoint(int v, RevScope& scope) {
  (void)scope;
  if (plan_.slotMode.count(v)) {
    Value idx = b_->constI(plan_.slotIdx.at(v));
    Value g = b_->load(slotArray_, idx);
    b_->store(slotArray_, idx, b_->constF(0));
    return g;
  }
  auto it = adjReg_.find(v);
  if (it == adjReg_.end()) return {};
  Value g = it->second;
  adjReg_.erase(it);
  return g;
}

void GradGen::accumShadow(Value sp, Value idx, Value g, RevScope& scope,
                          const ir::Inst* site, bool isLoadSite) {
  if (!cfg_.allAtomic && isLoadSite) {
    for (RevScope* sc = &scope; sc; sc = sc->parent)
      if (sc->loadSlots) {
        auto it = sc->loadSlots->find(site);
        if (it != sc->loadSlots->end()) {
          serialAdd(it->second, b_->constI(0), g);
          return;
        }
      }
  }
  const AccumDecision* dec = plan_.accumFor(site);
  PARAD_CHECK(dec, "internal: unplanned shadow accumulation site");
  if (dec->fallback == AccumKind::Atomic)
    b_->atomicAddF(sp, idx, g);
  else
    serialAdd(sp, idx, g);
}

void GradGen::emitReverseParallel(const ir::Inst& in, RevScope& scope) {
  // Reverse of Fork: fork with the body's barrier-segments reversed.
  // Reverse of ParallelFor: fork + workshare over the same range, so that
  // per-thread reduction slots have a thread-scoped region to live in.
  static const std::vector<RedEntry> kNoEntries;
  const std::vector<RedEntry>* planned = plan_.reductionEntries(&in);
  const std::vector<RedEntry>& entries = planned ? *planned : kNoEntries;
  Value nThreads = in.op == Op::Fork ? resolve(in.operands[0], scope)
                                     : b_->constI(0);  // default team

  std::unordered_map<const ir::Inst*, Value> loadSlots;
  std::unordered_map<int, Value> ssaSlots;

  b_->emitFork(nThreads, [&](Value tid) {
    RevScope fs;
    fs.parent = &scope;
    fs.parallel = &in;
    fs.loadSlots = &loadSlots;
    fs.ssaSlots = &ssaSlots;
    if (in.op == Op::Fork) {
      fs.inst = &in;
      fs.primalIter = tid;
      fs.dimIndex = tid;
    }
    // Reduction prologue: one zeroed thread-local partial per entry.
    for (const RedEntry& e : entries) {
      Value slot = b_->alloc(b_->constI(1), Type::F64, ir::kFlagCacheAlloc);
      b_->store(slot, b_->constI(0), b_->constF(0));
      if (e.load)
        loadSlots.emplace(e.load, slot);
      else
        ssaSlots.emplace(e.ssaValue, slot);
    }

    if (in.op == Op::Fork) {
      emitReverse(in.regions[0], fs);
    } else {
      Value lo = resolve(in.operands[0], scope);
      Value hi = resolve(in.operands[1], scope);
      b_->emitWorkshare(
          lo, hi,
          [&](Value iv) {
            RevScope ws;
            ws.parent = &fs;
            ws.parallel = &in;
            ws.inst = &in;
            ws.primalIter = iv;
            ws.dimIndex = b_->isub(iv, lo);
            emitReverse(in.regions[0], ws);
          },
          /*reversedChunks=*/true);
    }

    // Reduction epilogue: one atomic per thread per entry.
    for (const RedEntry& e : entries) {
      Value slot = e.load ? loadSlots.at(e.load) : ssaSlots.at(e.ssaValue);
      // Detach the slot so the recursive accumulation goes to the target.
      if (e.load)
        loadSlots.erase(e.load);
      else
        ssaSlots.erase(e.ssaValue);
      Value g = b_->load(slot, b_->constI(0));
      if (e.load) {
        Value sp = resolveShadow(e.load->operands[0], fs);
        Value idx = resolve(e.load->operands[1], fs);
        b_->atomicAddF(sp, idx, g);
      } else {
        b_->atomicAddF(slotArray_, b_->constI(plan_.slotIdx.at(e.ssaValue)),
                       g);
      }
      b_->free_(slot);
    }
  });
}

void GradGen::emitReverse(const ir::Region& r, RevScope& scope) {
  for (auto it = r.insts.rbegin(); it != r.insts.rend(); ++it)
    emitReverseInst(*it, scope);
}

void GradGen::emitReverseInst(const ir::Inst& in, RevScope& scope) {
  if (!plan_.reversal.hasReverseWork(&in)) return;
  auto consumed = [&]() -> Value { return consumeAdjoint(in.result, scope); };
  auto R = [&](std::size_t i) { return resolve(in.operands[i], scope); };

  switch (in.op) {
    case Op::Select: {
      if (in.result < 0 || p_.typeOf(in.result) != Type::F64) return;
      Value g = consumed();
      if (!g.valid()) return;
      Value c = R(0);
      Value zero = b_->constF(0);
      adjointAdd(in.operands[1], b_->select(c, g, zero), scope);
      adjointAdd(in.operands[2], b_->select(c, zero, g), scope);
      return;
    }

    // ---- memory ----
    case Op::Load: {
      if (!varied(in.result)) return;
      Value g = consumed();
      if (!g.valid()) return;
      Value sp = resolveShadow(in.operands[0], scope);
      Value idx = R(1);
      accumShadow(sp, idx, g, scope, &in, /*isLoadSite=*/true);
      return;
    }
    case Op::Store: {
      if (!variedPtr(in.operands[0])) return;
      if (ir::isPtr(p_.typeOf(in.operands[2]))) return;  // ptr store: aug only
      Value sp = resolveShadow(in.operands[0], scope);
      Value idx = R(1);
      Value g = b_->load(sp, idx);
      b_->store(sp, idx, b_->constF(0));
      adjointAdd(in.operands[2], g, scope);
      return;
    }
    case Op::AtomicAddF: {
      if (!variedPtr(in.operands[0]) || !varied(in.operands[2])) return;
      Value sp = resolveShadow(in.operands[0], scope);
      Value g = b_->load(sp, R(1));
      adjointAdd(in.operands[2], g, scope);
      return;
    }
    case Op::Memset0: {
      if (!variedPtr(in.operands[0])) return;
      b_->memset0(resolveShadow(in.operands[0], scope), R(1));
      return;
    }

    // ---- control flow ----
    case Op::For: {
      Value lo = R(0), hi = R(1);
      Value n = b_->isub(hi, lo);
      Value nm1 = b_->isub(n, b_->constI(1));
      b_->emitFor(b_->constI(0), n, [&](Value j) {
        RevScope s;
        s.parent = &scope;
        s.inst = &in;
        s.parallel = scope.parallel;
        s.dimIndex = b_->isub(nm1, j);
        s.primalIter = b_->iadd(lo, s.dimIndex);
        emitReverse(in.regions[0], s);
      });
      return;
    }
    case Op::While: {
      Value trip = b_->load(whileTrip_.at(&in), b_->constI(0));
      Value tm1 = b_->isub(trip, b_->constI(1));
      b_->emitFor(b_->constI(0), trip, [&](Value j) {
        RevScope s;
        s.parent = &scope;
        s.inst = &in;
        s.parallel = scope.parallel;
        s.dimIndex = b_->isub(tm1, j);
        s.primalIter = s.dimIndex;
        emitReverse(in.regions[0], s);
      });
      return;
    }
    case Op::Yield:
      return;
    case Op::If: {
      Value c = R(0);
      b_->emitIf(
          c,
          [&] {
            RevScope s;
            s.parent = &scope;
            s.parallel = scope.parallel;
            emitReverse(in.regions[0], s);
          },
          [&] {
            RevScope s;
            s.parent = &scope;
            s.parallel = scope.parallel;
            emitReverse(in.regions[1], s);
          });
      return;
    }
    case Op::ParallelFor:
    case Op::Fork:
      emitReverseParallel(in, scope);
      return;
    case Op::Workshare: {
      Value lo = R(0), hi = R(1);
      b_->emitWorkshare(
          lo, hi,
          [&](Value iv) {
            RevScope s;
            s.parent = &scope;
            s.inst = &in;
            s.parallel = scope.parallel;
            s.primalIter = iv;
            s.dimIndex = b_->isub(iv, lo);
            emitReverse(in.regions[0], s);
          },
          /*reversedChunks=*/true);
      return;
    }
    case Op::BarrierOp:
      b_->barrier();
      return;

    // ---- task DAG reversal: spawn <-> sync ----
    case Op::Spawn:
      b_->sync(shadowTask_.at(in.result));
      return;
    case Op::SyncOp: {
      const ir::Inst* sp = info_.defInst(in.operands[0]);
      Value t = b_->spawn([&] {
        RevScope s;
        s.parent = &scope;
        s.parallel = sp;
        emitReverse(sp->regions[0], s);
      });
      shadowTask_[in.operands[0]] = t;
      return;
    }

    // ---- message passing + foreign runtime (emit_mp.cpp) ----
    case Op::MpWaitOp:
    case Op::MpIsend:
    case Op::MpIrecv:
    case Op::MpSend:
    case Op::MpRecv:
    case Op::MpAllreduce:
    case Op::MpBarrier:
    case Op::GcPreserveBegin:
    case Op::GcPreserveEnd:
      emitReverseMp(in, scope);
      return;

    case Op::Return: {
      if (in.operands.empty() || !varied(in.operands[0])) return;
      PARAD_CHECK(out_.seedParam >= 0, "internal: seed param missing");
      adjointAdd(in.operands[0], b_->param(out_.seedParam), scope);
      return;
    }

    default:
      if (ir::hasDerivative(in.op)) {
        emitArithAdjoint(in, scope);
        return;
      }
      if (in.result >= 0 && p_.typeOf(in.result) == Type::F64 &&
          varied(in.result))
        ir::requireDerivative(in.op);  // throws: a varied f64 needs a rule
      // Integer ops, conversions, constants, allocations, pointer ops,
      // thread queries: no adjoint. Consume any stray register.
      if (in.result >= 0) adjReg_.erase(in.result);
      return;
  }
}

void GradGen::emitArithAdjoint(const ir::Inst& in, RevScope& scope) {
  Value g = consumeAdjoint(in.result, scope);
  if (!g.valid()) return;
  ir::IrRules m(*b_, [&](int k) {
    return resolve(k < 2 ? in.operands[(std::size_t)k] : in.result, scope);
  });
  // A rule is expanded for a varied operand, and for a constant one whose
  // rule reads just what a varied sibling's does (fsub, fmin, fmax). That
  // contribution is dead and cleanup drops it; it is still emitted because
  // the printed gradients pinned in tests/test_passes.cpp number their
  // values with it.
  int n = static_cast<int>(in.operands.size());
  for (int i = 0; i < n; ++i) {
    int v = in.operands[(std::size_t)i];
    bool expand = varied(v);
    for (int j = 0; j < n && !expand; ++j)
      expand = j != i && varied(in.operands[(std::size_t)j]) &&
               ir::derivativeReads(in.op, j) == ir::derivativeReads(in.op, i);
    if (expand) adjointAdd(v, m.derivative(in.op, i, g), scope);
  }
}

}  // namespace parad::core::detail
