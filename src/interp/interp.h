// IR execution on the psim virtual machine: a lower -> execute pipeline.
//
// This is the "runtime + JIT" of the reproduction: IR semantics are executed
// exactly (with bounds-checked memory), while every operation charges a cost
// against the current virtual worker's clock. Parallel constructs execute
// deterministically:
//   * fork bodies run thread-by-thread per barrier-delimited segment, with
//     per-thread storage for SSA values that cross segment boundaries;
//   * parallel-for iterations run in order, attributed to statically-chunked
//     virtual threads;
//   * spawned tasks run eagerly (serial-elision semantics, valid for
//     race-free programs) and are list-scheduled onto virtual task workers;
//   * message-passing ops call into the fabric, cooperatively yielding the
//     rank when a wait cannot complete yet.
//
// Execution is staged (DESIGN.md §9, §13): src/interp/lower.* compiles a
// function closure once into a flat ExecProgram (pre-resolved operand slots,
// folded cost charges, pre-split fork barrier segments, jump-addressed
// blocks). Engines are the ExecBackend implementations of a fixed engine
// table (src/interp/backend.h): "exec" dispatches the lowered program, "tree" is the recursive reference engine, and "codegen"
// emits the lowered program as C++ and runs it natively through the host
// compiler (src/interp/codegen.*). All engines produce bit-identical
// results, memory, statistics and virtual clocks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/ir/inst.h"
#include "src/psim/sim.h"

namespace parad::interp {

class ExecBackend;

/// Runtime value: untagged union (the IR's static types select the member).
struct RtVal {
  union U {
    double f;
    i64 i;
    psim::RtPtr p;
    std::int32_t req;
    std::int32_t task;
    U() : i(0) {}
  } u;
  static RtVal F(double v) { RtVal x; x.u.f = v; return x; }
  static RtVal I(i64 v) { RtVal x; x.u.i = v; return x; }
  static RtVal P(psim::RtPtr v) { RtVal x; x.u.p = v; return x; }
};

/// Process-wide default engine, by canonical name. Initialized from the
/// PARAD_ENGINE env knob on first use ("exec" when unset); an unknown value
/// fails with a structured error listing the backends. setDefaultEngine
/// accepts aliases ("lowered", "treewalk") and stores the canonical name.
std::string defaultEngine();
void setDefaultEngine(std::string_view engine);

/// Facade over the engine table. Construction is cheap; lowered programs
/// are cached process-wide per function (see lower.h) and looked up and
/// validated once per Machine::run, so per-rank construction inside the run
/// neither re-lowers nor re-fingerprints. That is safe because the IR cannot
/// change while a run executes it.
class Interpreter {
 public:
  Interpreter(const ir::Module& mod, psim::Machine& machine);
  Interpreter(const ir::Module& mod, psim::Machine& machine,
              std::string_view engine);

  /// Runs `fn` as the given rank's program (on the rank's main worker).
  /// Returns the function's return value (undefined content for void).
  RtVal run(const ir::Function& fn, std::vector<RtVal> args,
            psim::RankEnv& env);

  /// Canonical name of the backend this facade dispatches to.
  std::string_view engine() const;

 private:
  const ir::Module& mod_;
  psim::Machine& machine_;
  const ExecBackend* backend_;  // a static of the engine table
};

}  // namespace parad::interp
