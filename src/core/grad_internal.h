// Internal emitter state of the gradient pipeline, shared by the driver
// (gradient.cpp) and the emission stages (emit_forward.cpp /
// emit_reverse.cpp / emit_mp.cpp). Not installed; include only from
// src/core.
//
// GradGen is a pure plan executor: every decision — which values are cached
// and how, which accumulations are serial/reduction-slot/atomic, which
// constructs are mirrored — was made by computeGradPlan (src/core/plan.h)
// before the builder is even created. The methods here only materialize IR
// for those decisions.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/fninfo.h"
#include "src/core/gradient.h"
#include "src/core/plan.h"
#include "src/ir/builder.h"

namespace parad::core::detail {

using analysis::FnInfo;
using analysis::PtrClass;
using ir::Op;
using ir::Type;
using ir::Value;

// Tag offset separating adjoint communication from primal communication
// (canonically defined next to the plan stage that enforces it).
constexpr i64 kTagShift = kAdjointTagShift;

/// Runtime state of one planned cache array during emission. The decision
/// (strategy, dims, element type) lives in the plan; only the materialized
/// array and its per-dim extents are emission state.
struct CacheState {
  const CacheDecision* dec = nullptr;
  Value array;                 // set when allocated (aug pass)
  std::vector<Value> sizes;    // per-dim extents (top-level values)
};

class GradGen {
 public:
  GradGen(ir::Module& mod, const ir::Function& primal, const GradConfig& cfg)
      : mod_(mod),
        p_(primal),
        cfg_(cfg),
        info_(primal, cfg.activeArg),
        plan_(computeGradPlan(info_, cfg, cfg.remarks)) {}

  GradInfo run();

 private:
  bool varied(int v) const { return info_.varied(v); }
  bool variedPtr(int v) const { return info_.classVaried(info_.ptrClass(v)); }

  /// Builds the CacheState tables from the plan's array-backed decisions.
  void initCacheStates();

  // ===================== augmented forward (emit_forward.cpp) ============
  void emitAug(const ir::Region& r, int depth);
  void emitAugInst(const ir::Inst& in, int depth);
  void allocCachesAnchoredAt(const ir::Inst& in);
  void allocCache(CacheState& st);
  Value topEmit(int v);  // value usable at top level (depth-0 aug or const)
  Value cacheIndexAug(const CacheState& st);
  void storeCache(CacheState& st, Value val);
  Value aug(int v) const {
    Value x = augMap_[(std::size_t)v];
    PARAD_CHECK(x.valid(), "internal: missing aug value %", v);
    return x;
  }
  Value shadowAug(int v) const {
    Value x = shadowMap_[(std::size_t)v];
    PARAD_CHECK(x.valid(), "internal: missing shadow for %", v);
    return x;
  }

  // ===================== reverse (emit_reverse.cpp) ======================
  struct RevScope {
    RevScope* parent = nullptr;
    const ir::Inst* inst = nullptr;  // primal structured inst (dims lookup)
    Value primalIter;                // reverse-side value of the region arg
    Value dimIndex;                  // cache index along this dim
    const ir::Inst* parallel = nullptr;  // innermost parallel construct
    std::unordered_map<int, Value> memo;
    std::unordered_map<int, Value> shadowMemo;
    // Per-thread reduction slots (populated at reverse fork entry).
    std::unordered_map<const ir::Inst*, Value>* loadSlots = nullptr;
    std::unordered_map<int, Value>* ssaSlots = nullptr;
  };

  void emitReverse(const ir::Region& r, RevScope& scope);
  void emitReverseInst(const ir::Inst& in, RevScope& scope);
  void emitReverseParallel(const ir::Inst& in, RevScope& scope);
  void emitArithAdjoint(const ir::Inst& in, RevScope& scope);
  Value resolve(int v, RevScope& scope);
  Value resolveShadow(int v, RevScope& scope);
  Value cacheIndexRev(const CacheState& st, RevScope& scope);

  void adjointAdd(int v, Value contrib, RevScope& scope);
  Value consumeAdjoint(int v, RevScope& scope);  // invalid => zero, skip
  /// Accumulates g into shadow location (sp, idx) exactly as the plan's
  /// decision for `site` dictates; `isLoadSite` enables the per-thread
  /// reduction-slot chain lookup.
  void accumShadow(Value sp, Value idx, Value g, RevScope& scope,
                   const ir::Inst* site, bool isLoadSite);
  void serialAdd(Value p, Value idx, Value g) {
    b_->store(p, idx, b_->fadd(b_->load(p, idx), g));
  }

  // ============ message passing + foreign runtime (emit_mp.cpp) ==========
  void emitReverseMp(const ir::Inst& in, RevScope& scope);

  // ===================== state =====================
  ir::Module& mod_;
  const ir::Function& p_;
  GradConfig cfg_;
  FnInfo info_;
  GradPlan plan_;
  std::unique_ptr<ir::FunctionBuilder> b_;
  GradInfo out_;

  std::vector<Value> augMap_;
  std::vector<Value> shadowMap_;
  std::unordered_map<int, CacheState> caches_;        // primal value caches
  std::unordered_map<int, CacheState> shadowCaches_;  // shadow-pointer caches
  std::unordered_map<const ir::Inst*, CacheState> winnerCaches_;
  std::unordered_map<const ir::Inst*, Value> whileTrip_;

  std::unordered_map<int, Value> adjReg_;
  Value slotArray_;

  std::vector<int> deferredFree_;  // primal ptr value ids (top level)
  struct MpRev {
    Value tmp;   // temp receive buffer (isend adjoints)
    Value dreq;  // shadow request
  };
  std::unordered_map<const ir::Inst*, MpRev> mpRev_;
  std::unordered_map<int, Value> shadowTask_;
  std::unordered_map<int, Value> gcTokenRev_;
};

}  // namespace parad::core::detail
