// Instruction set, regions, functions and modules of the parad IR.
//
// Structure mirrors an MLIR-style structured SSA IR: a Function owns a body
// Region; a Region is a sequence of Insts; structured control flow and
// parallel constructs are single Insts owning nested Regions whose block
// arguments (induction variable, thread id, ...) are ordinary SSA values.
// Values are identified by dense per-function integer ids; the Function keeps
// a side table of value types.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/type.h"
#include "src/support/common.h"

namespace parad::ir {

enum class Op : unsigned char {
  // Constants.
  ConstF, ConstI, ConstB,
  // f64 arithmetic.
  FAdd, FSub, FMul, FDiv, FNeg,
  // f64 math intrinsics.
  Sqrt, Sin, Cos, Exp, Log, Pow, FAbs, FMin, FMax, Cbrt,
  // i64 arithmetic.
  IAdd, ISub, IMul, IDiv, IRem, IMinOp, IMaxOp,
  // Comparisons (result i1).
  ICmpEq, ICmpNe, ICmpLt, ICmpLe, ICmpGt, ICmpGe,
  FCmpLt, FCmpLe, FCmpGt, FCmpGe, FCmpEq,
  // Booleans.
  BAnd, BOr, BNot,
  Select,  // (i1, a, b) -> a or b
  // Conversions.
  IToF, FToI,
  // Memory. Alloc: (count:i64), iconst = element Type; heap allocation.
  Alloc, Free,
  Load,       // (ptr, idx:i64) -> elem
  Store,      // (ptr, idx:i64, val)
  PtrOffset,  // (ptr, idx:i64) -> ptr
  AtomicAddF, // (ptr<f64>, idx, val)
  Memset0,    // (ptr, count) zero-fill
  // Calls.
  Call,          // sym = callee name
  CallIndirect,  // (addr:i64, args...) resolved to Call by a pass
  Return,        // () or (val)
  // Structured control flow.
  For,    // (lo, hi) region(iv); iterates iv = lo..hi-1
  While,  // () region(iter:i64); body's last inst must be Yield(i1 continue)
  Yield,  // (i1) terminator of a While body
  If,     // (cond) region(then), region(else)
  // Parallel constructs (fork/join and task DAG).
  ParallelFor,  // (lo, hi) region(iv): iterations may run concurrently
  Fork,         // (nthreads:i64; <=0 means runtime default) region(tid)
  Workshare,    // (lo, hi) region(iv): static worksharing, inside Fork only
  BarrierOp,    // thread barrier, at the top level of a Fork body only
  ThreadIdOp, NumThreadsOp,
  Spawn,   // region() -> task
  SyncOp,  // (task)
  // Message passing (distinct address spaces per rank, explicit data motion).
  MpRank, MpSize,
  MpIsend,      // (ptr<f64>, count, dest, tag) -> req
  MpIrecv,      // (ptr<f64>, count, src, tag) -> req
  MpWaitOp,     // (req)
  MpSend,       // (ptr<f64>, count, dest, tag) blocking
  MpRecv,       // (ptr<f64>, count, src, tag) blocking
  MpAllreduce,  // (sendptr, recvptr, count), iconst = ReduceKind
  MpBarrier,
  // High-level omp dialect (lowered to Fork/Workshare before interp/AD).
  OmpParallelFor,  // (lo, hi, clause operands...) region(iv, clause vars...)
  // Dynamic-language (jlite) dialect.
  JlAllocArray,     // (count:i64) -> ptr<ptr>: GC'd boxed array descriptor
  GcPreserveBegin,  // (ptrs...) -> i64 token
  GcPreserveEnd,    // (token)
};

/// Number of opcodes; it names the last enumerator, so an opcode added after
/// GcPreserveEnd must update it. Tables indexed by Op (the traits table, the
/// exec engine's two dispatch tables) static_assert their size against it.
inline constexpr int kNumOps = static_cast<int>(Op::GcPreserveEnd) + 1;

enum class ReduceKind : unsigned char { Sum, Min, Max };

/// Kinds of clauses attachable to an OmpParallelFor.
enum class OmpClauseKind : unsigned char {
  FirstPrivate,  // operand: initial f64 value; region arg: ptr<f64> slot
  Private,       // no operand; region arg: ptr<f64> slot (uninitialized -> 0)
  LastPrivate,   // operand: ptr<f64> destination; region arg: ptr<f64> slot
  Reduction,     // operand: ptr<f64> target; region arg: ptr<f64> accumulator
};

struct OmpClause {
  OmpClauseKind kind;
  ReduceKind reduce = ReduceKind::Sum;  // for Reduction clauses
};

struct OmpInfo {
  std::vector<OmpClause> clauses;
  // Operand index (into Inst::operands) of the numThreads value, or -1.
  int numThreadsOperand = -1;
};

/// Bit flags carried on instructions.
enum InstFlags : unsigned {
  kFlagNone = 0,
  kFlagCacheAlloc = 1u << 0,   // Alloc created by the AD cache planner
  kFlagShadowAlloc = 1u << 1,  // Alloc created as shadow of a primal object
  kFlagReadNone = 1u << 2,     // (reserved)
};

struct Inst;

/// A region: straight-line list of instructions plus SSA block arguments.
struct Region {
  std::vector<int> args;  // value ids of the block arguments
  std::vector<Inst> insts;
};

struct Inst {
  Inst() = default;
  explicit Inst(Op o) : op(o) {}

  Op op = Op::ConstI;
  int result = -1;            // value id, or -1 if no result
  std::vector<int> operands;  // value ids
  double fconst = 0;          // payload for ConstF
  i64 iconst = 0;             // payload: ConstI/ConstB, Alloc elem type,
                              // Allreduce ReduceKind, tags, ...
  std::string sym;            // callee name for Call; free-form annotation
  unsigned flags = kFlagNone;
  std::vector<Region> regions;
  std::shared_ptr<OmpInfo> omp;  // only for OmpParallelFor
};

struct Function {
  std::string name;
  std::vector<Type> paramTypes;
  Type retType = Type::Void;
  Region body;  // body.args are the parameters (value ids 0..n-1)
  std::vector<Type> valueTypes;

  int numValues() const { return static_cast<int>(valueTypes.size()); }
  Type typeOf(int v) const {
    PARAD_CHECK(v >= 0 && v < numValues(), "value id out of range in ", name);
    return valueTypes[static_cast<std::size_t>(v)];
  }
};

/// Symbol table mapping opaque integer addresses to function names; models a
/// dynamic language runtime's loaded-symbol table (used by the jlite
/// frontend and the indirect-call resolution pass, paper §VI-C1).
struct SymbolTable {
  std::unordered_map<i64, std::string> addrToName;
  i64 nextAddr = 0x1000;

  i64 intern(const std::string& name) {
    for (const auto& [a, n] : addrToName)
      if (n == name) return a;
    i64 a = nextAddr++;
    addrToName.emplace(a, name);
    return a;
  }
  const std::string* lookup(i64 addr) const {
    auto it = addrToName.find(addr);
    return it == addrToName.end() ? nullptr : &it->second;
  }
};

struct Module {
  std::map<std::string, Function> functions;
  SymbolTable symbols;

  Function& get(const std::string& name) {
    auto it = functions.find(name);
    PARAD_CHECK(it != functions.end(), "no function named ", name);
    return it->second;
  }
  const Function& get(const std::string& name) const {
    auto it = functions.find(name);
    PARAD_CHECK(it != functions.end(), "no function named ", name);
    return it->second;
  }
  bool has(const std::string& name) const { return functions.count(name) != 0; }
};

/// Static metadata about an opcode (for the printer and verifier).
struct OpTraits {
  const char* name;
  int numRegions;    // -1: variable (none currently)
  bool hasResult;    // does the op define a value
};
const OpTraits& traits(Op op);

}  // namespace parad::ir
