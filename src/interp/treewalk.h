// Recursive tree-walking reference interpreter (the pre-lowering engine).
//
// A debug and differential-testing engine of the fixed engine table
// (backend.h): "tree" (alias "treewalk"), selected via PARAD_ENGINE=tree or
// an explicit engine name on the Interpreter facade. It walks IR regions
// recursively, reads operands from the IR, finds a fork body's barriers by
// scanning it and privatizes the values defined inside the fork — the part
// lowering precomputes for exec and codegen, which is why the differential
// tests in tests/test_exec.cpp and the app sweep in tests/test_property.cpp
// compare those engines against this one. What an instruction does to the
// machine is a call into the same per-rank Runtime (runtime.h) the other
// engines call.
//
// A TreeWalker is single-run state: the facade constructs a fresh one per
// run, so the defined-value cache (keyed by Inst pointers) can never outlive
// a pass that reallocates instruction storage.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/interp/interp.h"
#include "src/interp/runtime.h"

namespace parad::interp {

class TreeWalker {
 public:
  TreeWalker(const ir::Module& mod, psim::Machine& machine)
      : mod_(mod), machine_(machine) {}

  RtVal run(const ir::Function& fn, std::vector<RtVal> args,
            psim::RankEnv& env);

 private:
  Flow execRegion(const ir::Function& fn, const ir::Region& r, Frame& f,
                  Runtime& rt);
  /// Runs a region that must complete normally (a parallel or task body);
  /// a Return out of it fails with "return out of a <what>".
  void execBody(const ir::Function& fn, const ir::Region& r, Frame& f,
                Runtime& rt, const char* what);
  Flow execInst(const ir::Function& fn, const ir::Inst& in, Frame& f,
                Runtime& rt);
  void execFork(const ir::Function& fn, const ir::Inst& in, Frame& f,
                Runtime& rt);
  void execLoop(const ir::Function& fn, const ir::Inst& in, Frame& f,
                Runtime& rt);
  void execSpawn(const ir::Function& fn, const ir::Inst& in, Frame& f,
                 Runtime& rt);

  const std::vector<int>& definedValues(const ir::Inst& in);

  const ir::Module& mod_;
  psim::Machine& machine_;
  std::unordered_map<const ir::Inst*, std::vector<int>> definedCache_;
};

}  // namespace parad::interp
