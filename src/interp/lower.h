// Lowering layer of the execution pipeline (DESIGN.md §9).
//
// Compiles an ir::Function closure (the entry plus every transitively called
// function) once into an ExecModule: per function, a flat ExecProgram whose
// instructions carry pre-resolved frame slots (inline operand arrays instead
// of heap vectors), pre-resolved callee program indices, region bodies turned
// into jump-addressed blocks ([begin, end) ranges into one contiguous code
// array), pre-split barrier segments for fork bodies, and precomputed
// defined-value sets for per-thread fork storage. Constant instructions are
// folded out of the stream entirely (ConstInit, applied at frame setup) with
// per-instruction skip counts keeping instsExecuted bit-identical to the
// tree-walker, and adjacent region-free arithmetic instructions are paired
// into superinstructions that share one dispatch. Cost *folding* lives in
// psim::CostTable (built per MachineConfig at execution time), which keeps
// ExecPrograms machine-independent and therefore cacheable across Machines.
//
// Programs are cached process-wide in ProgramCache, keyed by function. Every
// cache hit is revalidated against a structural fingerprint of the current
// IR, so a pass that rewrites a function between two runs (reallocating the
// instruction vectors the old definedCache_ used to dangle into) triggers
// relowering instead of executing stale metadata. Passes additionally
// invalidate explicitly (src/passes) — the fingerprint is the safety net,
// not the contract. Inside one psim::Machine::run the IR cannot change, so
// compileClosure looks up and validates a closure once per run and hands
// the same ExecModule to every rank of it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/inst.h"
#include "src/support/lru.h"

namespace parad::interp {

/// One lowered instruction. Fixed-size and trivially copyable; the first
/// four operand slots are stored inline (covering every op except wide
/// calls, whose extra operands spill into ExecProgram::pool).
struct ExecInst {
  static constexpr int kInlineOps = 4;

  ir::Op op = ir::Op::ConstI;
  std::uint16_t nOps = 0;
  std::int32_t result = -1;                   // frame slot, or -1
  std::array<std::int32_t, kInlineOps> a{};   // operand frame slots
  std::int32_t poolBase = -1;                 // spill base when nOps > 4
  double fconst = 0;
  i64 iconst = 0;
  unsigned flags = 0;          // ir::InstFlags (Alloc provenance bits)
  std::int32_t callee = -1;    // Call: ExecModule program index
  std::int32_t trap = -1;      // index into ExecModule::trapMsgs, or -1
  std::int32_t blockA = -1;    // first sub-block (body / then)
  std::int32_t blockB = -1;    // second sub-block (else)
  std::int32_t segBase = 0, segCount = 0;    // Fork: barrier segments
  std::int32_t privBase = 0, privCount = 0;  // Fork: per-thread value slots
  std::int32_t privFixBase = 0, privFixCount = 0;  // Fork: const slot inits
  // Constant instructions immediately preceding this one in source order were
  // folded out of the stream (their values live in ExecProgram::constInits);
  // the executor adds this count when dispatching so instsExecuted stays
  // bit-identical to the tree-walker's.
  std::int32_t constsBefore = 0;
  // Superinstruction pairing: a second region-free arithmetic instruction
  // fused into this slot (-1 = none). It executes in the same dispatch-loop
  // iteration — same frame writes, same clock charges, same counts as two
  // separate dispatches, minus one trip through the interpreter loop.
  std::int16_t op2 = -1;  // ir::Op, or -1
  std::uint16_t nOps2 = 0;
  std::int32_t result2 = -1;
  std::array<std::int32_t, kInlineOps> a2{};
  std::int32_t consts2 = 0;  // folded consts between the pair's two ops
};

/// Ops eligible for superinstruction pairing: the ops.def arithmetic rows,
/// region-free frame arithmetic whose execution touches only the frame and
/// the worker clock (no memory manager, no scheduler state, no thread
/// identity). Two adjacent fusable instructions share one dispatch in the
/// executor, which expands a handler for each of these ops in each of its
/// two slots from the same rows.
inline bool fusableOp(ir::Op op) { return ir::traits(op).arith; }

/// A constant folded out of the instruction stream: written into its frame
/// slot once at frame setup instead of being dispatched on every visit.
struct ConstInit {
  std::int32_t slot = -1;
  double f = 0;
  i64 i = 0;
  bool isF = false;  // selects the union member the frame write uses
};

/// A lowered region: a contiguous [begin, end) range of ExecProgram::code
/// plus the frame slot of its single block argument (-1 if none).
struct ExecBlock {
  std::int32_t begin = 0, end = 0;
  std::int32_t arg = -1;
  std::int32_t trailingConsts = 0;  // folded consts after the last kept inst
};

/// A fork-body barrier segment: a sub-range of the body block with the
/// delimiting BarrierOp instructions already stripped.
struct ExecSegment {
  std::int32_t begin = 0, end = 0;
  std::int32_t trailingConsts = 0;
};

/// One function compiled to flat form.
struct ExecProgram {
  std::string name;
  int numValues = 0;
  std::size_t numParams = 0;
  std::vector<std::int32_t> paramSlots;  // frame slots of the parameters
  std::vector<ExecInst> code;
  std::vector<ExecBlock> blocks;
  std::vector<ExecSegment> segments;
  std::vector<ConstInit> constInits;  // folded constants, applied at frame setup
  std::vector<std::int32_t> pool;  // operand spill + fork defined-value sets
  std::int32_t entryBlock = 0;
  std::uint64_t fingerprint = 0;   // structural hash of the source Function
};

class CodegenArtifact;  // codegen.h

/// A lowered closure: entry program plus all transitively-called programs.
struct ExecModule {
  std::vector<ExecProgram> programs;  // [0] is the entry
  std::unordered_map<std::string, std::int32_t> indexOf;
  std::vector<std::string> trapMsgs;  // lazily-failing instruction messages
  // The codegen backend's artifact for this closure, looked up once under
  // `codegenOnce` by the first codegen run and freed with the closure; null
  // when that lookup fell back to exec (DESIGN.md §13).
  mutable std::once_flag codegenOnce;
  mutable std::shared_ptr<const CodegenArtifact> codegen;
};

/// Structural hash of a function: ops, operands, results, payloads, region
/// shapes and value types. Any IR mutation a pass can make changes it.
std::uint64_t fingerprint(const ir::Function& fn);

/// Deterministic footprint estimate of a lowered closure (flat vectors plus
/// fixed struct overhead of the lowered data; the codegen artifact slot is
/// not counted) — the unit of account for the ProgramCache's byte capacity
/// and the serving layer's registry bound.
std::size_t execModuleBytes(const ExecModule& xm);

/// Lowers `entry` and its callee closure against `mod`.
std::shared_ptr<const ExecModule> lower(const ir::Module& mod,
                                        const ir::Function& entry);

/// Backend-agnostic compile-artifact entry point: returns a valid lowered
/// closure for `fn`, through the process-wide ProgramCache when `fn` is a
/// module-registered function, uncached otherwise (e.g. a locally-built
/// kernel passed by reference). Every lowered-program backend (exec,
/// codegen) obtains its artifact here.
///
/// `runId` is the caller's psim::Machine::runId(). Within one run (nonzero
/// id) the cache is consulted once per (module, function): the IR a run
/// executes cannot change while it runs, so the ranks after the first reuse
/// the closure the first one validated. Outside a run (0) every call goes
/// through the cache and its fingerprint revalidation.
std::shared_ptr<const ExecModule> compileClosure(const ir::Module& mod,
                                                 const ir::Function& fn,
                                                 std::uint64_t runId = 0);

/// Process-wide cache of lowered closures, keyed by (module, entry name).
/// Hits are revalidated against the fingerprints of every function in the
/// closure; mismatches (a pass rewrote IR in place, or a module address was
/// reused) relower transparently. compileClosure consults the cache once per
/// Machine::run, so a run pays one revalidation however many ranks it has.
///
/// One LRU under one mutex, held only for a map find/insert/erase:
/// fingerprint revalidation and relowering both run outside the lock (the IR
/// is read-only during execution; two threads that miss the same key may
/// both lower, which is benign: the entries are equivalent and last-insert
/// wins). Counters are atomics so concurrent serving reports coherent
/// numbers without taking the lock.
class ProgramCache {
 public:
  static ProgramCache& global();

  /// Returns a valid lowered closure for `entry`, from cache or fresh.
  std::shared_ptr<const ExecModule> lookup(const ir::Module& mod,
                                           const ir::Function& entry);

  /// Drops every cached closure whose program set contains `fnName`.
  /// Mutating passes call this for the function they rewrite.
  void invalidate(const std::string& fnName);
  /// Drops every cached closure lowered against `mod` (keyed by its
  /// address). The serving layer calls this when it evicts a tenant
  /// program, so the evicted module's closures are freed immediately rather
  /// than lingering until fingerprint revalidation notices.
  void invalidateModule(const void* mod);
  void clear();

  /// Byte capacity for LRU eviction (0 = unbounded, the default; also
  /// settable via PARAD_PROGRAM_CACHE_BYTES). The least-recently-used
  /// closures are dropped on insert until the cache fits, never the one
  /// just inserted. Evicted closures transparently relower on the next
  /// lookup (a miss), so capacity only trades memory for recompiles —
  /// never correctness. An evicted closure frees its codegen artifact once
  /// no run holds it; the next codegen run reloads the artifact from disk.
  void setCapacityBytes(std::size_t bytes) {
    capacityBytes_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t capacityBytes() const {
    return capacityBytes_.load(std::memory_order_relaxed);
  }
  /// Bytes currently accounted to cached closures (execModuleBytes sums).
  std::size_t bytesInUse() const;

  /// Counters for tests and benches. A revalidation failure (stale
  /// fingerprint) counts as a miss, not an invalidation; `invalidations` is
  /// entries dropped by explicit invalidate()/clear() calls; `evictions` is
  /// entries dropped by the byte-capacity LRU policy.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    const ir::Module* mod;
    std::string entry;
    bool operator==(const Key& o) const {
      return mod == o.mod && entry == o.entry;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.mod) * 31 ^
             std::hash<std::string>()(k.entry);
    }
  };
  mutable std::mutex mu_;
  ByteLru<Key, std::shared_ptr<const ExecModule>, KeyHash> lru_;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, invalidations_{0},
      evictions_{0};
  std::atomic<std::size_t> capacityBytes_{0};
};

}  // namespace parad::interp
