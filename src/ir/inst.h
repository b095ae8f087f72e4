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

/// Opcodes, one per row of ops.def (which documents each op's operands).
enum class Op : unsigned char {
#define PARAD_OP(Id, ...) Id,
#include "src/ir/ops.def"
};

/// Number of opcodes. Tables indexed by Op (the traits table, the exec
/// engine's two dispatch tables) are expanded from ops.def too.
inline constexpr int kNumOps = 0
#define PARAD_OP(Id, ...) +1
#include "src/ir/ops.def"
    ;

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

/// What executing an op may observe or change, beyond its operands.
enum class OpEffect : unsigned char {
  Const,     // materializes its payload
  Pure,      // a function of its operands alone
  PureTrap,  // pure, but traps on some operands (idiv, irem)
  EnvRead,   // reads the running thread's or rank's identity
  Load,      // reads memory
  Other,     // writes memory, communicates, calls or holds regions
};

/// Static metadata about an opcode: its ops.def row.
struct OpTraits {
  const char* name;
  int numRegions;
  bool hasResult;
  OpEffect effect;
  bool arith;        // has a value statement in ops.def (the fusable ops)
  bool typed;        // `result` and `operands` are the op's exact types
  Type result;       // Void: no result
  Type operands[3];  // Void past the last operand

  int numOperands() const {
    int n = 0;
    while (n < 3 && operands[n] != Type::Void) ++n;
    return n;
  }
};
const OpTraits& traits(Op op);

/// Dead-code elimination may drop the op when its result is unused.
inline bool removableWhenUnused(Op op) {
  OpEffect e = traits(op).effect;
  return e != OpEffect::PureTrap && e != OpEffect::Other;
}

/// Loop-invariant code motion may hoist the op whenever its operands are
/// defined outside the loop.
inline bool hoistablePure(Op op) {
  OpEffect e = traits(op).effect;
  return e == OpEffect::Const || e == OpEffect::Pure;
}

}  // namespace parad::ir
