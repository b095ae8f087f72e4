// Plan stage of the gradient pipeline: first-class, printable decision
// objects computed before any IR is emitted.
//
//   * AccumPlan (§VI-A1): for every shadow-accumulation site (loads whose
//     adjoint increments shadow memory, message-passing adjoints, SSA
//     adjoint slots) the chosen kind — serial add / per-thread reduction
//     slot / atomic — together with the thread-locality evidence.
//   * CachePlan (§IV-C, §VI-B): for every primal value the reverse pass
//     needs, the preservation strategy — recompute, function-lifetime slot,
//     loop-trip-indexed array, dynamically-grown array — with the reason
//     recompute was illegal.
//   * ReversalPlan (§IV-A/B): the mirrored region/spawn-sync DAG (which
//     instructions have reverse work) and the MPI shadow-request pairing of
//     Fig. 5 (each wait resolved to the isend/irecv whose adjoint it must
//     issue).
//
// computeGradPlan performs no IR mutation: the emitters in emit_*.cpp are
// pure consumers that execute a plan, and tests/benches can inspect plans
// (and the RemarkStream narration) without generating any gradient.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/fninfo.h"
#include "src/core/gradient.h"
#include "src/ir/inst.h"

namespace parad::core {

class RemarkStream;

/// Tag offset separating adjoint communication from primal communication
/// (Fig. 5): every shadow/adjoint message reuses the primal tag plus this
/// shift. Primal programs must keep constant MPI tags below the shift, or
/// adjoint traffic could match primal receives; checkPrimalMpTags rejects
/// offenders at gradient-generation time (forward mode uses a disjoint
/// shift of 2^21 but enforces the same bound so a program stays
/// differentiable by every engine).
constexpr i64 kAdjointTagShift = i64(1) << 20;

/// Walks `fn` and fails with an actionable diagnostic if any message-passing
/// instruction carries a compile-time-constant tag >= kAdjointTagShift.
void checkPrimalMpTags(const ir::Function& fn);

// ---------------------------------------------------------------------------
// Accumulation plan (§VI-A1)
// ---------------------------------------------------------------------------

enum class AccumKind : unsigned char { Serial, ReductionSlot, Atomic };

/// Evidence behind an accumulation-kind decision.
enum class AccumWhy : unsigned char {
  SequentialContext,  // no enclosing parallel construct
  ThreadLocal,        // destination allocated inside the parallel construct
  UniformLocation,    // location uniform across the construct -> partials
  Unproven,           // thread-locality not provable -> atomic
  ForcedAtomic,       // cfg.allAtomic fallback
  ParallelCaller,     // gradient itself may be called concurrently
};

const char* accumKindName(AccumKind k);
const char* accumWhyName(AccumWhy w);

struct AccumDecision {
  AccumKind kind = AccumKind::Serial;
  AccumWhy why = AccumWhy::SequentialContext;
  /// Accumulation kind when the reduction slot is unavailable (equals `kind`
  /// for non-ReductionSlot decisions); the emitter's epilogue combines are
  /// always atomic and not part of the plan.
  AccumKind fallback = AccumKind::Serial;
  const ir::Inst* site = nullptr;      // load / mp op this decision is for
  const ir::Inst* parallel = nullptr;  // innermost parallel context, if any
  int value = -1;                      // accumulated value id (ptr or ssa)
};

// ---------------------------------------------------------------------------
// Cache plan (§IV-C, §VI-B)
// ---------------------------------------------------------------------------

enum class CacheStrategy : unsigned char {
  Recompute,         // re-emit the pure def chain in the reverse pass
  FnLifetimeSlot,    // function-scope value: stays live in its SSA slot
  TripIndexedArray,  // array indexed by loop trip counts / thread id (§VI-B)
  DynamicArray,      // dynamically grown (values under a while loop);
                     // classified by the plan, rejected by the emitter
};

const char* cacheStrategyName(CacheStrategy s);

struct CacheDecision {
  CacheStrategy strategy = CacheStrategy::Recompute;
  ir::Type storeTy = ir::Type::F64;
  bool fromI1 = false;
  /// Loop/fork dims the cache array is indexed by, outermost first.
  std::vector<const ir::Inst*> dims;
  /// Top-level instruction the array must be allocated before (null: no
  /// loop anchor, allocate at the use site).
  const ir::Inst* anchor = nullptr;
  /// Per-execution payload count value id (allreduce winner caches), or -1.
  int extraCountValue = -1;
  /// Why recompute was illegal (empty for Recompute / FnLifetimeSlot).
  std::string reason;
  /// False when the emitter cannot execute the decision (DynamicArray, or
  /// non-rectangular dim bounds); the plan's firstError carries the message.
  bool supported = true;

  bool needsArray() const {
    return strategy == CacheStrategy::TripIndexedArray ||
           strategy == CacheStrategy::DynamicArray;
  }
};

// ---------------------------------------------------------------------------
// Reduction-slot entries (registered-reduction path of §VI-A1)
// ---------------------------------------------------------------------------

struct RedEntry {
  const ir::Inst* load = nullptr;  // load-site entry...
  int ssaValue = -1;               // ...or SSA adjoint-slot entry
};

// ---------------------------------------------------------------------------
// Reversal plan (§IV-A, §IV-B)
// ---------------------------------------------------------------------------

struct ReversalPlan {
  /// Per instruction: whether its reversal emits any adjoint work. Covers
  /// every instruction of the primal.
  std::unordered_map<const ir::Inst*, char> reverseWork;
  /// MpWaitOp -> the isend/irecv whose shadow request the mirrored wait
  /// resolves (Fig. 5 pairing).
  std::unordered_map<const ir::Inst*, const ir::Inst*> waitPairs;
  /// While loops whose trip count is recorded in a dynamic counter slot.
  std::vector<const ir::Inst*> whileLoops;

  bool hasReverseWork(const ir::Inst* in) const {
    auto it = reverseWork.find(in);
    return it != reverseWork.end() && it->second != 0;
  }
};

// ---------------------------------------------------------------------------
// The full plan
// ---------------------------------------------------------------------------

struct GradPlan {
  /// Preservation decision per primal value the reverse pass needs.
  std::unordered_map<int, CacheDecision> caches;
  /// Shadow-pointer caches (loop-local differentiable allocations).
  std::unordered_map<int, CacheDecision> shadowCaches;
  /// Winner-rank caches for allreduce(min/max) adjoint routing.
  std::unordered_map<const ir::Inst*, CacheDecision> winnerCaches;

  /// SSA f64 adjoints used across regions: kept in a zeroed slot array.
  std::unordered_set<int> slotMode;
  std::unordered_map<int, i64> slotIdx;

  /// Shadow-memory accumulation decisions keyed by primal site (load or
  /// message-passing instruction).
  std::unordered_map<const ir::Inst*, AccumDecision> siteAccum;
  /// Slot-array accumulation kind per (ssa value, parallel context).
  std::unordered_map<int, std::unordered_map<const ir::Inst*, AccumDecision>>
      ssaAccum;
  /// Same decisions in deterministic first-encounter order (for remarks).
  std::vector<AccumDecision> ssaAccumOrder;
  /// Reduction-slot entries per parallel construct with reverse work.
  std::unordered_map<const ir::Inst*, std::vector<RedEntry>> reductions;

  ReversalPlan reversal;
  PlanCounts counts;
  /// Cache arrays planned (markCache sites; excludes winner caches —
  /// back-compat with GradInfo::numCachedValues).
  int numCachedValues = 0;

  /// First strategy limitation hit in plan order; generateGradient raises it
  /// verbatim. Kept out-of-band so the pure plan API can still classify
  /// unsupported strategies (e.g. DynamicArray) for inspection.
  std::string firstError;

  // ---- queries ----
  const CacheDecision* cacheFor(int v) const {
    auto it = caches.find(v);
    return it == caches.end() ? nullptr : &it->second;
  }
  const CacheDecision* shadowCacheFor(int v) const {
    auto it = shadowCaches.find(v);
    return it == shadowCaches.end() ? nullptr : &it->second;
  }
  const AccumDecision* accumFor(const ir::Inst* site) const {
    auto it = siteAccum.find(site);
    return it == siteAccum.end() ? nullptr : &it->second;
  }
  /// Accumulation decision for the load instruction defining `loadResult`.
  const AccumDecision* accumForValue(int loadResult) const;
  /// Slot-array accumulation kind for value v in parallel context `par`
  /// (null: function scope). Fails if the pair was never planned.
  AccumKind ssaSlotKind(int v, const ir::Inst* par) const;
  const std::vector<RedEntry>* reductionEntries(const ir::Inst* par) const {
    auto it = reductions.find(par);
    return it == reductions.end() ? nullptr : &it->second;
  }
};

/// Computes the gradient plan for `info.fn()` under `cfg`. Pure analysis —
/// no IR is created or mutated. Structural errors (calls not inlined, omp
/// dialect not lowered, malformed wait/sync pairing) throw parad::Error,
/// matching generateGradient; strategy limitations are recorded in the plan
/// instead (see GradPlan::firstError).
GradPlan computeGradPlan(const analysis::FnInfo& info, const GradConfig& cfg,
                         RemarkStream* remarks);

/// Convenience: plan the gradient of mod[fnName] without emitting anything.
GradPlan planGradient(const ir::Module& mod, const std::string& fnName,
                      const GradConfig& cfg, RemarkStream* remarks = nullptr);

/// True if the value defined by `d` may be re-emitted in the reverse pass
/// instead of cached: an op for which reEmittableOp holds (constants, pure
/// and trapping-pure arithmetic, thread and rank identity), or a load from
/// a location class that is never written.
bool isReEmittable(const analysis::FnInfo& info, const ir::Inst* d);
bool reEmittableOp(ir::Op op);

/// True if value v can be re-materialized at function scope (cache dim
/// bounds): it is defined there, or by a topMaterializableOp (constants,
/// integer index arithmetic, select, num.threads) whose operands are.
/// NumThreads is assumed to equal the default team size — sound for
/// default-sized forks, the only kind our frontends emit (DESIGN.md).
bool isTopMaterializable(const analysis::FnInfo& info, int v);
bool topMaterializableOp(ir::Op op);

}  // namespace parad::core
