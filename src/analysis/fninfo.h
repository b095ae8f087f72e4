// Static analyses the AD engine depends on (paper §VI-A1, §IV-C):
//   * region structure: def sites, depths, parent chains, loop paths;
//   * pointer classification (a light alias analysis): every pointer value is
//     mapped to an allocation class (argument, alloc site, jl-boxed data, or
//     unknown) so the engine can decide shadow existence, thread-locality,
//     and whether a load may be recomputed in the reverse pass;
//   * activity ("varied") analysis over values and memory classes, seeded by
//     the active pointer arguments, iterated to a fixpoint through memory;
//   * written-class analysis: classes that are never written may be re-read
//     in the reverse pass instead of cached.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/inst.h"

namespace parad::analysis {

struct PtrClass {
  enum class Kind { Arg, AllocSite, JlData, Unknown };
  Kind kind = Kind::Unknown;
  int arg = -1;                    // for Kind::Arg
  const ir::Inst* site = nullptr;  // for AllocSite / JlData

  bool operator==(const PtrClass& o) const {
    return kind == o.kind && arg == o.arg && site == o.site;
  }
  /// Hashable key (kind is disambiguated through the pointer/arg payload).
  std::size_t key() const {
    auto h = static_cast<std::size_t>(kind) * 0x9e3779b9u;
    h ^= static_cast<std::size_t>(arg + 1) * 0x85ebca6bu;
    h ^= reinterpret_cast<std::size_t>(site);
    return h;
  }
  static PtrClass argClass(int a) { return {Kind::Arg, a, nullptr}; }
  static PtrClass allocClass(const ir::Inst* s) {
    return {Kind::AllocSite, -1, s};
  }
  static PtrClass jlData(const ir::Inst* s) { return {Kind::JlData, -1, s}; }
  static PtrClass unknown() { return {}; }
};

class FnInfo {
 public:
  /// Structure, pointer classes and written classes: what the passes read.
  /// No activity: varied() and classVaried() need the constructor below.
  explicit FnInfo(const ir::Function& fn);
  /// All of the above plus the activity fixpoint, for the differentiating
  /// callers. `activeArg[i]` marks pointer argument i as differentiable (has
  /// a shadow). Scalar f64 arguments are treated as constants.
  FnInfo(const ir::Function& fn, const std::vector<bool>& activeArg);

  const ir::Function& fn() const { return *fn_; }

  // ---- structure ----
  const ir::Inst* defInst(int v) const { return def_[(std::size_t)v]; }
  const ir::Region* defRegion(int v) const { return defRegion_[(std::size_t)v]; }
  int depth(int v) const { return depth_[(std::size_t)v]; }
  bool isRegionArg(int v) const { return argOwner_.count(v) != 0; }
  /// The structured inst owning region-arg v (null for function params).
  const ir::Inst* regionArgOwner(int v) const {
    auto it = argOwner_.find(v);
    return it == argOwner_.end() ? nullptr : it->second;
  }
  const ir::Inst* regionParent(const ir::Region* r) const {
    auto it = regionParentInst_.find(r);
    return it == regionParentInst_.end() ? nullptr : it->second;
  }
  /// The region whose instruction list holds `in`.
  const ir::Region* instRegion(const ir::Inst* in) const;
  /// Enclosing structured insts of a region, outermost first.
  std::vector<const ir::Inst*> enclosingChain(const ir::Region* r) const;
  /// True if value v is defined inside (any region of) inst `container`.
  bool definedInside(int v, const ir::Inst* container) const;

  /// Loop dims for caching a value defined in region r: the enclosing
  /// For/While/ParallelFor/Workshare/Fork chain, outermost first, with a Fork
  /// dropped when a Workshare appears below it (worksharing caches are
  /// indexed by iteration, paper §VI-B).
  std::vector<const ir::Inst*> cacheDims(const ir::Region* r) const;

  // ---- pointers ----
  PtrClass ptrClass(int v) const { return ptrClass_[(std::size_t)v]; }
  bool classWritten(const PtrClass& c) const {
    return c.kind == PtrClass::Kind::Unknown || written_.count(c.key()) != 0;
  }
  bool classVaried(const PtrClass& c) const {
    return c.kind == PtrClass::Kind::Unknown || variedClass_.count(c.key()) != 0;
  }

  // ---- activity ----
  bool varied(int v) const { return varied_[(std::size_t)v] != 0; }

  /// Values used in a region different from their defining region (their
  /// reverse-pass adjoints need a memory slot rather than an SSA register).
  bool usedAcrossRegions(int v) const {
    return crossRegion_[(std::size_t)v] != 0;
  }

  /// Returned value id, or -1.
  int returnedValue() const { return returnedValue_; }

 private:
  void index(const ir::Region& r, const ir::Region* parent,
             const ir::Inst* parentInst, int depth);
  void classify();
  void activity(const std::vector<bool>& activeArg);

  const ir::Function* fn_;
  std::vector<const ir::Inst*> def_;
  std::vector<const ir::Region*> defRegion_;
  std::vector<int> depth_;
  std::unordered_map<int, const ir::Inst*> argOwner_;
  std::unordered_map<const ir::Region*, const ir::Inst*> regionParentInst_;
  std::unordered_map<const ir::Region*, const ir::Region*> regionParentRegion_;
  // Each non-empty region's instruction array as an address range, sorted
  // by address: one entry per region instead of one map entry per inst.
  struct InstRange {
    const ir::Inst* begin;
    const ir::Inst* end;
    const ir::Region* region;
  };
  std::vector<InstRange> instRanges_;
  std::vector<PtrClass> ptrClass_;
  std::unordered_set<std::size_t> written_;
  std::unordered_set<std::size_t> variedClass_;
  std::vector<char> varied_;
  std::vector<char> crossRegion_;
  int returnedValue_ = -1;
  // All insts in pre-order (for fixpoint sweeps).
  std::vector<const ir::Inst*> allInsts_;
};

}  // namespace parad::analysis
