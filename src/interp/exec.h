// Execution layer of the pipeline (DESIGN.md §9): a tight dispatch loop over
// the flat ExecProgram produced by lower.h.
//
// The Executor mirrors the tree-walking reference engine case for case —
// same charge formulas (via the psim::CostTable folded per MachineConfig),
// same worker bookkeeping order, same deterministic parallel semantics — so
// results, memory, RunStats and virtual clocks are bit-identical, while the
// per-instruction overhead (heap-allocated operand vectors, pointer-chasing
// across tree nodes, defined-set map lookups) is gone: operands are inline
// slots, fork barrier segments and per-thread value sets are precompiled,
// and callees are pre-resolved program indices.
//
// The codegen backend (src/interp/codegen.*) derives from Executor and
// overrides execRange to dispatch into natively-compiled range functions;
// everything structural (run setup, calls, fork/parallel-for orchestration,
// machine-state instructions via execComplexInst) is shared, which is what
// keeps the backends bit-identical by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "src/interp/interp.h"
#include "src/interp/lower.h"

namespace parad::interp {

class Executor {
 public:
  Executor(const ExecModule& xm, psim::Machine& machine)
      : xm_(xm), machine_(machine), ct_(machine.config().cost) {}
  virtual ~Executor() = default;

  /// Runs the module's entry program as the given rank's program.
  RtVal run(std::vector<RtVal> args, psim::RankEnv& env);

 protected:
  struct ThreadState {
    psim::WorkerCtx w;
    int tid = 0;
    int nthreads = 1;
  };
  struct TaskRec {
    double endTime = 0;
  };
  using Frame = std::vector<RtVal>;
  struct RankRun {  // mutable per-rank execution state
    psim::RankEnv* env = nullptr;
    ThreadState* ts = nullptr;    // current virtual thread
    ThreadState* root = nullptr;  // the rank's main thread (kill-probe gate)
    std::vector<TaskRec> tasks;
    std::vector<double> taskWorkerFree;
    std::vector<Frame> framePool;  // recycled call frames (capacity reuse)
    RtVal retVal{};
    bool yield = false;
    int callDepth = 0;
    std::uint64_t insts = 0;  // dispatched instructions (flushed to RunStats)
  };
  enum class Flow { Normal, Return };

  /// Hook for derived engines: called once per run after the RankRun is set
  /// up and before the entry block executes.
  virtual void beginRun(RankRun& rr) { (void)rr; }

  /// Executes [pc, end); `trailingConsts` is the number of folded constant
  /// instructions after the last kept one, counted on normal exit so the
  /// dispatch counter matches the tree-walker exactly. Virtual: the codegen
  /// backend redirects ranges it compiled into native functions.
  virtual Flow execRange(const ExecProgram& p, std::int32_t pc,
                         std::int32_t end, std::int32_t trailingConsts,
                         Frame& f, RankRun& rr);
  Flow execBlock(const ExecProgram& p, std::int32_t blockId, Frame& f,
                 RankRun& rr) {
    const ExecBlock& b = p.blocks[static_cast<std::size_t>(blockId)];
    return execRange(p, b.begin, b.end, b.trailingConsts, f, rr);
  }
  Flow execFork(const ExecProgram& p, const ExecInst& in, Frame& f,
                RankRun& rr);
  Flow execParallelFor(const ExecProgram& p, const ExecInst& in, Frame& f,
                       RankRun& rr);
  RtVal callProgram(const ExecProgram& callee, const RtVal* args,
                    std::size_t nArgs, RankRun& rr);

  /// Executes one machine-state instruction (alloc/free/atomics/memset,
  /// spawn/sync, message passing, fork, parallel for, boxed allocs) — the
  /// single implementation both the dispatch loop and the codegen
  /// backend's complex-op callback funnel through, so every backend charges
  /// and mutates machine state identically. Does NOT touch rr.insts: the
  /// caller owns dispatch counting.
  Flow execComplexInst(const ExecProgram& p, const ExecInst& in, Frame& f,
                       RankRun& rr);

  const ExecModule& xm_;
  psim::Machine& machine_;
  psim::CostTable ct_;
};

}  // namespace parad::interp
