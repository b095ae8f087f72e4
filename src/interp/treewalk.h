// Recursive tree-walking reference interpreter (the pre-lowering engine).
//
// Demoted to a debug/differential-testing engine: it is registered with the
// backend registry (backend.h) as "tree" (alias "treewalk") and selected via
// PARAD_ENGINE=tree or an explicit engine name on the Interpreter facade. The
// lowered executor (lower.h + exec.h) and the native codegen backend
// (codegen.h) must stay observationally identical to this engine — results,
// memory, RunStats and virtual clocks bit for bit — which the differential
// tests in tests/test_exec.cpp and the app sweep in tests/test_property.cpp
// enforce across the full engine matrix.
//
// A TreeWalker is single-run state: the facade constructs a fresh one per
// run, so the defined-value cache (keyed by Inst pointers) can never outlive
// a pass that reallocates instruction storage.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/interp/interp.h"

namespace parad::interp {

class TreeWalker {
 public:
  TreeWalker(const ir::Module& mod, psim::Machine& machine)
      : mod_(mod), machine_(machine), ct_(machine.config().cost) {}

  RtVal run(const ir::Function& fn, std::vector<RtVal> args,
            psim::RankEnv& env);

 private:
  struct ThreadState {
    psim::WorkerCtx w;
    int tid = 0;
    int nthreads = 1;
  };
  struct TaskRec {
    double endTime = 0;
  };
  struct RankRun {  // mutable per-rank interpreter state
    psim::RankEnv* env = nullptr;
    ThreadState* ts = nullptr;    // current virtual thread
    ThreadState* root = nullptr;  // the rank's main thread (kill-probe gate)
    std::vector<TaskRec> tasks;
    std::vector<double> taskWorkerFree;
    RtVal retVal{};
    bool yield = false;
    int callDepth = 0;
    std::uint64_t insts = 0;  // dispatched instructions (flushed to RunStats)
  };
  using Frame = std::vector<RtVal>;
  enum class Flow { Normal, Return };

  Flow execRegion(const ir::Function& fn, const ir::Region& r, Frame& f,
                  RankRun& rr);
  Flow execInst(const ir::Function& fn, const ir::Inst& in, Frame& f,
                RankRun& rr);
  Flow execFork(const ir::Function& fn, const ir::Inst& in, Frame& f,
                RankRun& rr);
  Flow execParallelFor(const ir::Function& fn, const ir::Inst& in, Frame& f,
                       RankRun& rr);
  RtVal callFunction(const ir::Function& callee, std::vector<RtVal> args,
                     RankRun& rr);

  const std::vector<int>& definedValues(const ir::Inst& in);

  const ir::Module& mod_;
  psim::Machine& machine_;
  psim::CostTable ct_;  // the ops.def cost fields, as exec charges them
  std::unordered_map<const ir::Inst*, std::vector<int>> definedCache_;
};

}  // namespace parad::interp
