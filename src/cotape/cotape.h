// cotape: an operator-overloading-style, runtime-taping reverse-mode AD tool
// with an adjoint message-passing layer — the stand-in for CoDiPack + AMPI
// used as the paper's baseline (§VII "CoDiPack").
//
// Mechanism (faithful to Jacobian taping): the forward sweep executes the
// program and records one tape statement per floating-point operation (lhs
// adjoint index, argument indices, stored partials); every f64 memory
// location carries the adjoint index of the value stored in it. The reverse
// sweep walks the tape backwards, propagating adjoints through the stored
// partials, and replays communication reversed (sends become receives of
// adjoints and vice versa; allreduces reduce adjoints).
//
// Characteristics reproduced: a large *serial* per-instruction gradient
// overhead (every operation pays tape-write in the forward sweep and
// tape-read + random-access adjoint updates in the reverse sweep) and no
// support for shared-memory parallel constructs (CoDiPack cannot
// differentiate the OpenMP LULESH, §VIII).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/interp/interp.h"
#include "src/interp/runtime.h"
#include "src/ir/inst.h"
#include "src/psim/sim.h"

namespace parad::cotape {

struct TapeConfig {
  double tapeWriteCost = 8.0;  // ns per recorded statement (forward)
  double tapeReadCost = 5.0;   // ns per statement (reverse), plus memory
};

/// A buffer participating in differentiation: `shadow` supplies output seeds
/// before the run and receives input gradients after it.
struct ActiveBinding {
  psim::RtPtr primal;
  psim::RtPtr shadow;
  i64 count = 0;
};

class TapeInterpreter {
 public:
  TapeInterpreter(const ir::Module& mod, psim::Machine& machine,
                  TapeConfig cfg = {})
      : mod_(mod), machine_(machine), cfg_(cfg),
        ct_(machine.config().cost) {}

  /// Runs the forward (taping) sweep of `fn` and then the reverse sweep for
  /// this rank. `inputs` are registered before the run (their shadows
  /// receive gradients); `outputs` seed the reverse sweep from their shadows.
  /// The same binding may appear in both (in-place programs).
  void gradient(const ir::Function& fn, std::vector<interp::RtVal> args,
                psim::RankEnv& env, const std::vector<ActiveBinding>& inputs,
                const std::vector<ActiveBinding>& outputs);

  std::size_t tapeStatements() const { return stmts_.size(); }

 private:
  struct Stmt {
    std::int32_t lhs = -1;
    std::int32_t nargs = 0;
    std::int32_t arg[2] = {-1, -1};
    double partial[2] = {0, 0};
  };
  enum class CommKind : unsigned char {
    Isend, Irecv, AllreduceSum, AllreduceMinMax, Barrier
  };
  struct CommRec {
    CommKind kind;
    int peer = 0, tag = 0;
    i64 count = 0;
    std::vector<std::int32_t> indices;      // send or recv element indices
    std::vector<std::int32_t> sendIndices;  // allreduce send side
    std::vector<char> won;                  // min/max: did this rank win
  };
  struct TapedVal {  // runtime value with adjoint index
    interp::RtVal v;
    std::int32_t idx = -1;
  };
  using Frame = std::vector<TapedVal>;
  using Flow = interp::Flow;

  // Forward (taping) execution. The machine side of every op (memory,
  // message passing, their charges and checks) is the shared
  // interp::Runtime's; this sweep adds the tape and the comm records.
  Flow execRegion(const ir::Function& fn, const ir::Region& r, Frame& f,
                  interp::Runtime& rt);
  Flow execInst(const ir::Function& fn, const ir::Inst& in, Frame& f,
                interp::Runtime& rt);
  // An ops.def arithmetic row's value, then its tape record.
  void execArith(const ir::Inst& in, Frame& f, psim::WorkerCtx& w);
  // Reverse sweep.
  void reverse(interp::Runtime& rt);

  std::int32_t fresh() { return nextIdx_++; }
  std::vector<std::int32_t>& idxOf(psim::RtPtr p);

  const ir::Module& mod_;
  psim::Machine& machine_;
  TapeConfig cfg_;
  psim::CostTable ct_;

  std::vector<Stmt> stmts_;
  // Statement stream interleaved with communication records: commAt_[k] is
  // the statement position of comm record k.
  std::vector<std::size_t> commAt_;
  std::vector<CommRec> comms_;
  std::int32_t nextIdx_ = 0;
  std::unordered_map<std::int32_t, std::vector<std::int32_t>> memIdx_;
  std::vector<double> adjoint_;
  struct PendingRecv {
    psim::RtPtr p;
    i64 count = 0;
    int src = 0, tag = 0;
  };
  std::unordered_map<psim::ReqId, PendingRecv> pendingRecv_;
  void recordRecv(psim::RtPtr p, i64 count, int src, int tag);
  interp::RtVal retVal_{};
  std::int32_t retIdx_ = -1;
  bool yield_ = false;
};

}  // namespace parad::cotape
