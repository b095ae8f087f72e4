// psim: a deterministic virtual parallel machine.
//
// The paper evaluates on a dual-socket 32+32-core Xeon (AWS c6i.metal) plus
// MPI ranks; this host has a single core, so parallel execution is *modeled*:
// every interpreted operation advances a virtual per-worker clock by a cost
// from a calibrated model, with first-touch NUMA placement, per-socket
// bandwidth contention, atomic serialization, fork/join/barrier overheads and
// an alpha-beta communication model for message passing. Program *semantics*
// are executed exactly (deterministically); only time is simulated.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/psim/faults.h"
#include "src/support/common.h"

namespace parad::psim {

/// Cost model, in virtual nanoseconds. Values are calibrated so the
/// benchmark curves reproduce the qualitative shapes reported in the paper
/// (see DESIGN.md §2 and bench/README notes).
struct CostModel {
  // Scalar op costs.
  double flop = 0.7;        // simple f64 arithmetic
  double intOp = 0.35;      // integer/compare/select
  double special = 12.0;    // sqrt/sin/cos/exp/log/cbrt/fabs-min-max treated below
  double powCost = 20.0;
  double minmax = 0.9;      // fabs/fmin/fmax
  // Memory system.
  double memLatencyLocal = 1.3;   // per access, home socket == worker socket
  double memLatencyRemote = 3.6;  // per access crossing the socket interconnect
  double coreBandwidth = 16.0;    // bytes/ns a single core can stream
  double socketBandwidth = 170.0; // bytes/ns shared per socket
  double atomicCost = 16.0;       // base cost of an atomic RMW
  double atomicPingPong = 42.0;   // extra cost when the line moved cores
  // Parallel runtime overheads.
  double forkBase = 900.0, forkPerThread = 28.0;
  double joinBase = 160.0, joinPerThread = 9.0;
  double barrierBase = 140.0, barrierPerThread = 7.0;
  double workshareInit = 55.0;
  double spawnCost = 320.0, syncCost = 90.0;
  double loopIter = 0.25;  // per-iteration loop control
  // Message passing (Hockney model).
  double mpAlphaLocal = 550.0;   // same-socket rank pair
  double mpAlphaRemote = 1050.0; // cross-socket rank pair
  double mpBetaPerByte = 0.055;  // ~18 GB/s effective point-to-point
  double mpWaitCost = 120.0;
  double allreducePerStage = 420.0;  // per log2(ranks) stage
  // Hierarchical collectives. Stage costs are charged per tree/ring stage;
  // `collectiveLinkGamma` adds contention when several of a stage's flows
  // share the socket interconnect (cost per extra concurrent cross-socket
  // flow). 0 keeps the historical calibration: every stage costs the same
  // regardless of flow count, so release times match the flat-rendezvous
  // model bit for bit. `allreduceRingMinBytes` switches allreduce to a
  // bandwidth-optimal ring schedule (2(n-1) stages of count/n-element
  // chunks) once the payload reaches that size; 0 disables the ring and the
  // binomial tree is always used.
  double collectiveLinkGamma = 0.0;
  double allreduceRingMinBytes = 0.0;
  // Allocation.
  double allocBase = 180.0, allocPerKb = 2.0;
  // Checkpoint/restart (charged only when ckpt_interval > 0, so fault-free
  // runs never see these terms). Write is charged to the collective's
  // release time; restore is charged once per rollback.
  double ckptWriteBase = 6000.0, ckptWritePerByte = 0.02;
  double ckptRestoreBase = 9000.0, ckptRestorePerByte = 0.03;
  // Elastic recovery (FaultConfig::elastic): instead of a full rollback
  // restore, the dead rank's shard of the last checkpoint (payload / ranks)
  // is migrated to a survivor. Cheaper than a restore by design.
  double elasticMigrateBase = 2500.0, elasticMigratePerByte = 0.01;
  // Misc.
  double callCost = 12.0;  // direct call overhead
  double gcCost = 20.0;    // GC intrinsic bookkeeping (jlite)
  double boxedExtra = 1.0; // extra indirection charge for boxed-array allocs
};

/// Hardware shape of the modeled machine.
struct MachineConfig {
  int sockets = 2;
  int coresPerSocket = 32;
  CostModel cost;
  /// Forced serialization of all shadow accumulation to atomics (the
  /// legal-but-slow fallback discussed in §VI-A1); used by ablation benches.
  bool chargeAtomicContention = true;
  /// Interpreter call-stack limit (deep-recursion tests and the jlite
  /// frontend raise it; the default matches the historical hard limit).
  int maxCallDepth = 512;
  /// Virtual task workers per rank for spawn/sync scheduling; 0 means one
  /// worker per thread of the rank (the launch's threadsPerRank).
  int taskWorkers = 0;
  /// Deterministic fault injection (see faults.h). Disabled by default; the
  /// `PARAD_FAULTS` env spec is consulted per run when this is off.
  FaultConfig faults;
  /// Watchdog bounds converting livelocks into structured VmErrors instead
  /// of hangs; 0 disables. `watchdogVirtualNs` bounds any rank's virtual
  /// clock; `watchdogInsts` bounds instructions dispatched per rank per run.
  double watchdogVirtualNs = 0;
  std::uint64_t watchdogInsts = 0;
  /// Host-side cancellation flag (nullptr = never cancelled). The execution
  /// engines probe it at the same dispatch boundaries as the kill/watchdog
  /// probes; once the owner sets it, the run aborts with a structured
  /// Deadline FailureReport. The serving layer (src/serve) arms this to
  /// cancel a batch whose deadline expires mid-run — the flag must outlive
  /// the run.
  const std::atomic<bool>* cancel = nullptr;
  /// Durable checkpoint directory; overrides `faults.ckptDir` when set (the
  /// programmatic spelling of the `ckpt_dir=` FaultPlan key — see
  /// DESIGN.md §16). Takes effect only with checkpointing armed
  /// (faults.enabled and ckpt_interval > 0).
  std::string ckptDir;

  int totalCores() const { return sockets * coresPerSocket; }
  int socketOfCore(int core) const {
    return (core / coresPerSocket) % sockets;
  }
};

/// Per-opcode clock charges folded from a CostModel once per machine
/// configuration, so the execution engine charges a single pre-multiplied
/// constant per instruction instead of re-deriving `flop * 4`-style products
/// on every visit. Folding must preserve the tree-walker's exact charge
/// sequence: every field below is the same double the reference engine
/// computes inline (same products, same order), so virtual clocks stay
/// bit-identical between engines.
struct CostTable {
  double flop, fdiv;        // FDiv charges flop * 4
  double intOp, intDiv;     // IDiv/IRem charge intOp * 4
  double special, powCost, minmax;
  double loopIter, workshareInit;
  double spawnCost, syncCost;
  double callCost, gcCost;
  double freeCost;          // Free charges allocBase * 0.3

  explicit CostTable(const CostModel& c)
      : flop(c.flop), fdiv(c.flop * 4),
        intOp(c.intOp), intDiv(c.intOp * 4),
        special(c.special), powCost(c.powCost), minmax(c.minmax),
        loopIter(c.loopIter), workshareInit(c.workshareInit),
        spawnCost(c.spawnCost), syncCost(c.syncCost),
        callCost(c.callCost), gcCost(c.gcCost),
        freeCost(c.allocBase * 0.3) {}
};

/// A virtual worker (one thread of one rank). The interpreter creates these
/// when entering parallel regions; psim charges costs against their clocks.
struct WorkerCtx {
  double clock = 0;   // virtual ns
  int core = 0;       // modeled core this worker is pinned to
  int socket = 0;
  double dilation = 1;  // >1 when virtual workers oversubscribe modeled cores

  void advance(double ns) { clock += ns * dilation; }
};

/// Statistics gathered over one Machine::run (see bench harnesses).
struct RunStats {
  std::uint64_t instsExecuted = 0;  // IR instructions dispatched
  std::uint64_t atomicOps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytesSent = 0;
  // Hierarchical-collective accounting: stages executed by the staged
  // tree/ring schedules and the modeled wire traffic they put on the links.
  std::uint64_t collectiveStages = 0;
  std::uint64_t collectiveBytesOnWire = 0;
  std::uint64_t allocBytes = 0;
  std::uint64_t cacheBytes = 0;   // bytes allocated by the AD cache planner
  std::uint64_t tapeBytes = 0;    // bytes recorded by the cotape baseline
  std::uint64_t peakLiveBytes = 0;
  // Fault-injection bookkeeping (all zero when no FaultPlan is active).
  std::uint64_t retransmits = 0;    // message copies re-sent after a loss
  std::uint64_t droppedMsgs = 0;    // message copies lost in flight
  std::uint64_t dupDeliveries = 0;  // duplicate copies suppressed by seqnos
  std::uint64_t faultsInjected = 0; // total fault events fired by the plan
  // Checkpoint/restart bookkeeping (zero unless ckpt_interval > 0). These
  // five are *resilience* counters: a rollback restores every other field
  // from the checkpointed stats, but preserves these so the final report
  // still shows what the recovery machinery did.
  std::uint64_t checkpoints = 0;    // snapshots captured at collectives
  std::uint64_t restores = 0;       // rollbacks performed after a kill
  std::uint64_t ranksKilled = 0;    // rank-crash events fired by the plan
  std::uint64_t ckptBytes = 0;      // payload bytes written by checkpoints
  std::uint64_t elasticMigrations = 0;  // shard migrations (elastic=1 kills)
  // Durable-checkpoint bookkeeping (zero unless ckpt_dir is set). Resilience
  // counters like the five above: rollbacks preserve them. A failed durable
  // publish (real or injected iofail/torn) never fails the run — in-memory
  // recovery is unaffected — it is only counted and remarked.
  std::uint64_t durableWrites = 0;      // epoch publishes attempted
  std::uint64_t durableWriteFails = 0;  // publishes that failed outright
  std::uint64_t durableResumes = 0;     // runs seeded from an on-disk epoch
  // Static decision counts from the AD plan stage (core::PlanCounts), filled
  // by the bench harnesses so ablations can report *which* decisions flipped
  // alongside the dynamic costs above. Zero when no gradient was generated.
  std::uint64_t planAccumSerial = 0;
  std::uint64_t planAccumReductionSlot = 0;
  std::uint64_t planAccumAtomic = 0;
  std::uint64_t planCacheRecompute = 0;
  std::uint64_t planCacheSlots = 0;
  std::uint64_t planCacheTripArrays = 0;
  void reset() { *this = RunStats{}; }
};

}  // namespace parad::psim
