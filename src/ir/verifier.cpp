#include "src/ir/verifier.h"

#include <vector>

#include "src/support/common.h"

namespace parad::ir {
namespace {

// Fails verification with the message pieces `...`, which are evaluated only
// when `cond` is false: the verifier runs after every pass, and on valid IR
// it must neither format nor allocate.
#define VERIFY(cond, ...)          \
  do {                             \
    if (!(cond)) die(__VA_ARGS__); \
  } while (0)

class Verifier {
 public:
  Verifier(const Module& mod, const Function& fn) : mod_(mod), fn_(fn) {}

  void run() {
    defined_.assign(static_cast<std::size_t>(fn_.numValues()), false);
    PARAD_CHECK(fn_.body.args.size() == fn_.paramTypes.size(),
                "param count mismatch in ", fn_.name);
    for (std::size_t i = 0; i < fn_.body.args.size(); ++i) {
      define(fn_.body.args[i]);
      VERIFY(fn_.typeOf(fn_.body.args[i]) == fn_.paramTypes[i],
             "param type mismatch");
    }
    checkRegion(fn_.body, /*inFork=*/false, /*inParallel=*/false,
                /*isWhileBody=*/false, /*isForkBody=*/false);
  }

 private:
  template <typename... Args>
  [[noreturn]] void die(const Args&... msg) {
    fail("verifier: function @", fn_.name, ": ", msg...);
  }
  void define(int v) {
    VERIFY(v >= 0 && v < fn_.numValues(), "value id out of range");
    VERIFY(!defined_[static_cast<std::size_t>(v)], "value defined twice");
    defined_[static_cast<std::size_t>(v)] = true;
  }
  Type use(int v) {
    VERIFY(v >= 0 && v < fn_.numValues(), "operand id out of range");
    VERIFY(defined_[static_cast<std::size_t>(v)], "use of value %", v,
           " before definition");
    return fn_.typeOf(v);
  }
  void expect(const Inst& in, std::size_t i, Type t) {
    VERIFY(i < in.operands.size(), "missing operand for ",
           traits(in.op).name);
    Type got = use(in.operands[i]);
    VERIFY(got == t, traits(in.op).name, ": operand ", i, " has type ",
           typeName(got), ", expected ", typeName(t));
  }
  void expectPtr(const Inst& in, std::size_t i) {
    VERIFY(i < in.operands.size(), "missing pointer operand");
    VERIFY(isPtr(use(in.operands[i])), "expected pointer operand");
  }
  void expectCount(const Inst& in, std::size_t n) {
    VERIFY(in.operands.size() == n, traits(in.op).name,
           ": wrong operand count");
  }
  void expectResult(const Inst& in, Type t) {
    VERIFY(in.result >= 0, "missing result");
    VERIFY(fn_.typeOf(in.result) == t, "result type mismatch");
  }

  void checkRegion(const Region& r, bool inFork, bool inParallel,
                   bool isWhileBody, bool isForkBody) {
    for (std::size_t idx = 0; idx < r.insts.size(); ++idx) {
      const Inst& in = r.insts[idx];
      bool isLast = idx + 1 == r.insts.size();
      checkInst(in, inFork, inParallel, isWhileBody && isLast,
                /*topOfForkBody=*/isForkBody);
    }
    if (isWhileBody)
      VERIFY(!r.insts.empty() && r.insts.back().op == Op::Yield,
             "while body must end in yield");
  }

  void checkInst(const Inst& in, bool inFork, bool inParallel,
                 bool mayBeYield, bool topOfForkBody) {
    const OpTraits& t = traits(in.op);
    VERIFY(in.regions.size() == static_cast<std::size_t>(t.numRegions),
           t.name, ": wrong region count");
    // An op with a fixed signature (ops.def): its operand count, then each
    // operand's type, then its result's. The switch adds what else it needs.
    if (t.typed) {
      expectCount(in, static_cast<std::size_t>(t.numOperands()));
      for (int i = 0; i < t.numOperands(); ++i)
        expect(in, static_cast<std::size_t>(i), t.operands[i]);
      if (t.result != Type::Void) expectResult(in, t.result);
    }
    switch (in.op) {
      case Op::ConstF:
      case Op::ConstI:
      case Op::ConstB:
        expectCount(in, 0);
        break;
      case Op::Select: {
        expectCount(in, 3);
        expect(in, 0, Type::I1);
        Type a = use(in.operands[1]), b = use(in.operands[2]);
        VERIFY(a == b, "select arm type mismatch");
        expectResult(in, a);
        break;
      }
      case Op::Alloc: {
        expectCount(in, 1);
        expect(in, 0, Type::I64);
        Type elem = static_cast<Type>(in.iconst);
        VERIFY(elem == Type::F64 || elem == Type::I64 || elem == Type::PtrF64,
               "alloc: bad element type");
        expectResult(in, ptrTo(elem));
        break;
      }
      case Op::Free:
        expectCount(in, 1);
        expectPtr(in, 0);
        break;
      case Op::Load:
        expectCount(in, 2);
        expectPtr(in, 0);
        expect(in, 1, Type::I64);
        expectResult(in, elemType(use(in.operands[0])));
        break;
      case Op::Store:
        expectCount(in, 3);
        expectPtr(in, 0);
        expect(in, 1, Type::I64);
        expect(in, 2, elemType(use(in.operands[0])));
        break;
      case Op::PtrOffset:
        expectCount(in, 2);
        expectPtr(in, 0);
        expect(in, 1, Type::I64);
        expectResult(in, use(in.operands[0]));
        break;
      case Op::Memset0:
        expectCount(in, 2);
        expectPtr(in, 0);
        expect(in, 1, Type::I64);
        break;
      case Op::Call: {
        VERIFY(mod_.has(in.sym), "call to unknown function @", in.sym);
        const Function& callee = mod_.get(in.sym);
        VERIFY(in.operands.size() == callee.paramTypes.size(), "call @",
               in.sym, ": wrong argument count");
        for (std::size_t i = 0; i < in.operands.size(); ++i)
          expect(in, i, callee.paramTypes[i]);
        if (callee.retType != Type::Void) expectResult(in, callee.retType);
        break;
      }
      case Op::CallIndirect:
        VERIFY(!in.operands.empty(), "call.indirect: missing address");
        expect(in, 0, Type::I64);
        for (std::size_t i = 1; i < in.operands.size(); ++i)
          use(in.operands[i]);
        break;
      case Op::Return:
        if (fn_.retType == Type::Void) {
          expectCount(in, 0);
        } else {
          expectCount(in, 1);
          expect(in, 0, fn_.retType);
        }
        break;
      case Op::For:
      case Op::Workshare:
      case Op::ParallelFor:
        VERIFY(in.regions[0].args.size() == 1, "loop region needs 1 arg");
        if (in.op == Op::Workshare)
          VERIFY(inFork, "workshare outside fork");
        break;
      case Op::While:
        VERIFY(in.regions[0].args.size() == 1, "while region needs 1 arg");
        break;
      case Op::Yield:
        VERIFY(mayBeYield, "yield must be the last inst of a while body");
        expectCount(in, 1);
        expect(in, 0, Type::I1);
        break;
      case Op::If:
        VERIFY(in.regions[0].args.empty() && in.regions[1].args.empty(),
               "if regions take no args");
        break;
      case Op::Fork:
        VERIFY(in.regions[0].args.size() == 1, "fork region needs 1 arg (tid)");
        break;
      case Op::BarrierOp:
        VERIFY(topOfForkBody,
               "barrier only allowed at top level of a fork body");
        expectCount(in, 0);
        break;
      case Op::Spawn:
        expectCount(in, 0);
        VERIFY(in.regions[0].args.empty(), "spawn region takes no args");
        expectResult(in, Type::Task);
        break;
      case Op::MpRank:
      case Op::MpSize:
      case Op::MpWaitOp:
      case Op::MpBarrier:
        VERIFY(!inFork && !inParallel, "mp op inside a shared-memory region");
        break;
      case Op::MpIsend:
      case Op::MpIrecv:
        expectCount(in, 4);
        expect(in, 0, Type::PtrF64);
        expect(in, 1, Type::I64);
        expect(in, 2, Type::I64);
        expect(in, 3, Type::I64);
        expectResult(in, Type::Req);
        VERIFY(!inFork && !inParallel, "mp op inside a shared-memory region");
        break;
      case Op::MpSend:
      case Op::MpRecv:
        expectCount(in, 4);
        expect(in, 0, Type::PtrF64);
        expect(in, 1, Type::I64);
        expect(in, 2, Type::I64);
        expect(in, 3, Type::I64);
        VERIFY(!inFork && !inParallel, "mp op inside a shared-memory region");
        break;
      case Op::MpAllreduce:
        // Optional 4th operand: ptr<i64> receiving the per-element winning
        // rank for min/max (used by the AD engine to route adjoints).
        VERIFY(in.operands.size() == 3 || in.operands.size() == 4,
               "mp.allreduce: wrong operand count");
        expect(in, 0, Type::PtrF64);
        expect(in, 1, Type::PtrF64);
        expect(in, 2, Type::I64);
        if (in.operands.size() == 4) expect(in, 3, Type::PtrI64);
        VERIFY(in.iconst >= 0 && in.iconst <= 2, "bad reduce kind");
        VERIFY(!inFork && !inParallel, "mp op inside a shared-memory region");
        break;
      case Op::OmpParallelFor: {
        VERIFY(in.omp != nullptr, "omp.parallel.for missing clause info");
        std::size_t expected = 2 + in.omp->clauses.size() +
                               (in.omp->numThreadsOperand >= 0 ? 1 : 0);
        VERIFY(in.operands.size() == expected, "omp operand count mismatch");
        expect(in, 0, Type::I64);
        expect(in, 1, Type::I64);
        for (std::size_t i = 0; i < in.omp->clauses.size(); ++i) {
          switch (in.omp->clauses[i].kind) {
            case OmpClauseKind::FirstPrivate:
              expect(in, 2 + i, Type::F64);
              break;
            case OmpClauseKind::Private:
              use(in.operands[2 + i]);
              break;
            case OmpClauseKind::LastPrivate:
            case OmpClauseKind::Reduction:
              expect(in, 2 + i, Type::PtrF64);
              break;
          }
        }
        VERIFY(in.regions[0].args.size() == 1 + in.omp->clauses.size(),
               "omp region arg count mismatch");
        break;
      }
      case Op::GcPreserveBegin:
        for (std::size_t i = 0; i < in.operands.size(); ++i) expectPtr(in, i);
        expectResult(in, Type::I64);
        break;
      default:
        // Fully checked by its signature above.
        PARAD_CHECK(t.typed, "verifier: no type rule for ", t.name);
        break;
    }
    if (in.result >= 0) define(in.result);
    // Check nested regions with updated context. Spawn and ParallelFor bodies
    // start a fresh shared-memory context (no enclosing-fork worksharing).
    bool resetsFork = in.op == Op::Spawn || in.op == Op::ParallelFor;
    bool fork = (inFork && !resetsFork) || in.op == Op::Fork;
    bool par = inParallel || in.op == Op::Fork || in.op == Op::ParallelFor ||
               in.op == Op::Spawn || in.op == Op::OmpParallelFor;
    // Loop-like regions take the i64 induction variable (or thread id);
    // an omp.parallel.for body also takes one ptr<f64> slot per clause.
    std::size_t numArgs = 0;
    switch (in.op) {
      case Op::For: case Op::Workshare: case Op::ParallelFor:
      case Op::Fork: case Op::While:
        numArgs = 1;
        break;
      case Op::OmpParallelFor:
        numArgs = 1 + in.omp->clauses.size();
        break;
      default: break;
    }
    for (const Region& reg : in.regions) {
      VERIFY(reg.args.size() == numArgs, "region arg count");
      for (std::size_t i = 0; i < reg.args.size(); ++i) {
        define(reg.args[i]);
        VERIFY(fn_.typeOf(reg.args[i]) == (i == 0 ? Type::I64 : Type::PtrF64),
               "region arg type");
      }
      // Values defined inside a nested region stay defined afterwards for the
      // purposes of this simple verifier; the interpreter's frame layout makes
      // out-of-scope references read stale values, and the AD planner checks
      // availability separately.
      checkRegion(reg, fork, par, /*isWhileBody=*/in.op == Op::While,
                  /*isForkBody=*/in.op == Op::Fork);
    }
  }

  const Module& mod_;
  const Function& fn_;
  std::vector<bool> defined_;
};

#undef VERIFY

}  // namespace

void verify(const Module& mod, const Function& fn) { Verifier(mod, fn).run(); }

void verify(const Module& mod) {
  for (const auto& [name, fn] : mod.functions) verify(mod, fn);
}

}  // namespace parad::ir
