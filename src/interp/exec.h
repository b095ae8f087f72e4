// Execution layer of the pipeline (DESIGN.md §9): a direct-threaded
// dispatch loop over the flat ExecProgram produced by lower.h.
//
// The Executor owns how lowered code is walked: operands are inline frame
// slots, fork barrier segments and per-thread value sets are precompiled,
// and callees are pre-resolved program indices. Everything an instruction
// does to the machine (memory, tasks, message passing, thread teams, the
// range-exit probe, the run's prologue and epilogue) is a call into the
// per-rank Runtime (runtime.h), the same calls the tree walker and the
// codegen backend make, so results, memory, RunStats and virtual clocks are
// bit-identical across engines.
//
// The codegen backend (src/interp/codegen.*) derives from Executor and
// overrides execRange to dispatch into natively compiled range functions;
// its host callbacks reuse callProgram and execComplexInst.
#pragma once

#include <cstdint>
#include <vector>

#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/interp/runtime.h"

namespace parad::interp {

class Executor {
 public:
  Executor(const ExecModule& xm, psim::Machine& machine)
      : xm_(xm), machine_(machine) {}
  virtual ~Executor() = default;

  /// Runs the module's entry program as the given rank's program.
  RtVal run(std::vector<RtVal> args, psim::RankEnv& env);

 protected:
  /// Hook for derived engines: called once per run after the Runtime is
  /// set up and before the entry block executes.
  virtual void beginRun(Runtime& rt) { (void)rt; }

  /// Executes [pc, end); `trailingConsts` is the number of folded constant
  /// instructions after the last kept one, counted on normal exit so the
  /// dispatch counter matches the tree-walker exactly. Virtual: the codegen
  /// backend redirects ranges it compiled into native functions.
  virtual Flow execRange(const ExecProgram& p, std::int32_t pc,
                         std::int32_t end, std::int32_t trailingConsts,
                         Frame& f, Runtime& rt);
  Flow execBlock(const ExecProgram& p, std::int32_t blockId, Frame& f,
                 Runtime& rt) {
    const ExecBlock& b = p.blocks[static_cast<std::size_t>(blockId)];
    return execRange(p, b.begin, b.end, b.trailingConsts, f, rt);
  }
  /// Runs a block that must complete normally (a parallel or task body);
  /// a Return out of it fails with "return out of a <what>".
  void execBody(const ExecProgram& p, std::int32_t blockId, Frame& f,
                Runtime& rt, const char* what);
  RtVal callProgram(const ExecProgram& callee, const RtVal* args,
                    std::size_t nArgs, Runtime& rt);

  /// Decodes one machine-state instruction (alloc/free/atomics/memset,
  /// spawn/sync, message passing, fork, parallel for, workshare, boxed
  /// allocs) into its Runtime call: the one path both the dispatch loop and
  /// the codegen backend's complex-op callback take. Out of line, so the
  /// lambdas the team calls take leave execRange's registers alone. Does
  /// NOT touch rt.insts: the caller owns dispatch counting.
  void execComplexInst(const ExecProgram& p, const ExecInst& in, Frame& f,
                       Runtime& rt);

  const ExecModule& xm_;
  psim::Machine& machine_;

 private:
  void execFork(const ExecProgram& p, const ExecInst& in, Frame& f,
                Runtime& rt);
};

}  // namespace parad::interp
