// Machine: top-level handle of the virtual parallel machine.
//
// Owns the memory manager, run statistics, cooperative rank scheduler and
// (during a run) the message fabric; provides the cost-charging entry points
// the interpreter uses to advance virtual worker clocks with NUMA and
// contention effects.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/psim/checkpoint.h"
#include "src/psim/fabric.h"
#include "src/psim/failure.h"
#include "src/psim/faults.h"
#include "src/psim/machine.h"
#include "src/psim/memory.h"
#include "src/psim/sched.h"

namespace parad::psim {

class Machine;

/// Per-rank execution context handed to the interpreter.
struct RankEnv {
  Machine* machine = nullptr;
  int rank = 0;
  int ranks = 1;
  int threadsPerRank = 1;
  WorkerCtx main;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {})
      : cfg_(cfg), mem_(stats_), workers_(static_cast<std::size_t>(cfg.sockets), 0) {
    resetMemCharges();
  }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  MachineConfig& config() { return cfg_; }
  const MachineConfig& config() const { return cfg_; }
  RunStats& stats() { return stats_; }
  MemoryManager& mem() { return mem_; }
  Fabric* fabric() { return fabric_.get(); }
  CoopScheduler& sched() { return sched_; }

  struct Launch {
    int ranks = 1;
    int threadsPerRank = 1;
  };

  /// Runs fn over all ranks on the cooperative scheduler; returns the
  /// maximum finishing virtual clock over ranks (the program's makespan).
  double run(const Launch& launch, const std::function<void(RankEnv&)>& fn);

  /// Identity of the active run: a process-unique id drawn when run() is
  /// entered, 0 whenever no run is active (before, after, and after a run
  /// that threw). Ids are never reused — not across runs of one Machine, nor
  /// across Machines — so a consumer may key per-run state on it alone.
  std::uint64_t runId() const { return runId_; }

  // ---- fault injection & failure diagnostics ----
  /// The fault oracle of the current run (inert when faults are disabled).
  const FaultPlan& faultPlan() const { return faultPlan_; }
  /// Extra clock dilation of `rank` under the active fault plan (1.0 when
  /// the rank is not a straggler or faults are off), times the load of its
  /// hosting rank after elastic migrations (a survivor that adopted dead
  /// ranks' personas runs them all on its own cores).
  double rankSlowdown(int rank) const {
    return faultPlan_.slowdown(rank) * static_cast<double>(hostLoad(rank));
  }
  /// Captures a machine-wide per-rank failure snapshot (clocks, blocked
  /// message-passing operations, inbox depths). Valid during a run. A parked
  /// rank reports the clock it parked with, a finished rank its final clock.
  /// `rank` (-1: none) is the running rank that detected the failure and
  /// `clock` its current clock, which only the caller knows.
  FailureReport buildFailureReport(FailureReport::Kind kind,
                                   std::string detail, int rank = -1,
                                   double clock = 0);
  /// Trips the per-rank dispatched-instruction watchdog: throws a VmError
  /// whose report snapshots every rank. Called by the execution engines.
  [[noreturn]] void failWatchdog(int rank, std::uint64_t insts, double clock);
  /// Same, for the virtual-time bound: catches a rank that keeps computing
  /// past the bound without ever yielding to the scheduler.
  [[noreturn]] void failWatchdogTime(int rank, double clock);

  // ---- checkpoint/restart ----
  /// The checkpoint manager of the most recent resilient run (nullptr when
  /// ckpt_interval is 0). Kept alive after run() returns so tests can
  /// inspect the final checkpoint and restore trail.
  CheckpointManager* checkpoints() { return ckpt_.get(); }
  const CheckpointManager* checkpoints() const { return ckpt_.get(); }
  /// Effective virtual-time watchdog bound for the current attempt: the
  /// configured bound plus the recovery slack accumulated by restores, so a
  /// legitimate rollback-and-replay is not misdiagnosed as a livelock
  /// (0 = watchdog disabled). The execution engines consult this, not the
  /// raw config.
  double watchdogTimeBound() const {
    return cfg_.watchdogVirtualNs <= 0 ? 0
                                       : cfg_.watchdogVirtualNs +
                                             watchdogSlackNs_;
  }
  /// Kill probe, called by the execution engines from the root thread of a
  /// rank at dispatch boundaries. Fires the pending crash of `rank` once its
  /// virtual clock passes the fault plan's kill time: aborts every rank and
  /// throws the (internal) RankKillSignal that run()'s recovery loop
  /// handles. One branch when no kill schedule is armed. Host cancellation
  /// (MachineConfig::cancel, e.g. a serving deadline) rides the same probe:
  /// it wins over a scheduled crash because a cancelled run's outcome is
  /// discarded either way and the cancel must not enter the kill-recovery
  /// loop.
  void checkKill(int rank, double clock) {
    if (cfg_.cancel != nullptr &&
        cfg_.cancel->load(std::memory_order_relaxed))
      failCancelled(rank, clock);
    if (!killArmed_) return;
    double t = killAt_[static_cast<std::size_t>(rank)];
    if (t >= 0 && clock >= t) fireKill(rank, clock);
  }
  /// Whether a host-cancellation flag is armed for this machine. Engines
  /// that batch dispatch (codegen) use this, like killArmed(), to decide
  /// once per run whether range exits need a probe at all.
  bool cancelArmed() const { return cfg_.cancel != nullptr; }
  /// Trips host cancellation: throws a VmError with a Deadline report that
  /// snapshots every rank (same machinery as the watchdogs).
  [[noreturn]] void failCancelled(int rank, double clock);
  /// Whether a kill schedule is armed for the current run. Engines that
  /// batch dispatch (codegen) use this to decide once per run whether range
  /// exits need a probe at all.
  bool killArmed() const { return killArmed_; }

  // ---- placement ----
  /// Hosting rank of a (possibly migrated) rank persona: identity until an
  /// elastic recovery re-homes a dead rank's work onto a survivor.
  int hostOf(int rank) const {
    return hostOf_.empty() ? rank : hostOf_[static_cast<std::size_t>(rank)];
  }
  /// Rank personas hosted by `rank`'s host (1 unless elastic migrations
  /// piled personas onto a survivor).
  int hostLoad(int rank) const {
    return hostLoad_.empty()
               ? 1
               : hostLoad_[static_cast<std::size_t>(hostOf(rank))];
  }
  /// Hosts still alive after elastic kills (== launch ranks until one dies).
  int aliveHosts() const {
    int n = 0;
    for (char a : hostAlive_) n += a ? 1 : 0;
    return hostAlive_.empty() ? launch_.ranks : n;
  }
  int coreOfRankThread(int rank, int tid) const {
    return (hostOf(rank) * launch_.threadsPerRank + tid) % cfg_.totalCores();
  }
  int socketOfCore(int core) const { return cfg_.socketOfCore(core); }
  int socketOfRank(int rank) const {
    return socketOfCore(coreOfRankThread(rank, 0));
  }
  /// Clock-dilation factor when virtual workers oversubscribe modeled cores.
  double dilation() const {
    double w = static_cast<double>(launch_.ranks) * launch_.threadsPerRank;
    double c = static_cast<double>(cfg_.totalCores());
    return w > c ? w / c : 1.0;
  }

  // ---- contention bookkeeping (workers active per socket) ----
  void addWorkers(int socket, int n) {
    workers_[static_cast<std::size_t>(socket)] += n;
  }
  void removeWorkers(int socket, int n) {
    workers_[static_cast<std::size_t>(socket)] -= n;
  }
  int workersOn(int socket) const {
    return workers_[static_cast<std::size_t>(socket)];
  }

  // ---- cost charging ----
  /// One memory access of `bytes` bytes whose object is homed on homeSocket.
  /// The single-element (8-byte) case — every interpreted load/store — is
  /// served from a per-socket memo of the folded charge, recomputed only when
  /// the home socket's sharer count changes; the two divisions in the cold
  /// path would otherwise dominate interpreted memory-op cost. The memo holds
  /// exactly the double the cold path computes (same expression, same order),
  /// so virtual clocks are unaffected; run() resets it so between-run config
  /// edits take effect.
  void chargeMem(WorkerCtx& w, int homeSocket, i64 bytes) {
    if (bytes == 8) {
      MemCharge& mc = memCharge_[static_cast<std::size_t>(homeSocket)];
      int sharers = workersOn(homeSocket);
      if (mc.sharers != sharers) foldMemCharge(mc, sharers);
      w.advance(w.socket == homeSocket ? mc.local8 : mc.remote8);
      return;
    }
    const CostModel& c = cfg_.cost;
    double lat = (w.socket == homeSocket) ? c.memLatencyLocal
                                          : c.memLatencyRemote;
    int sharers = workersOn(homeSocket);
    double perWorker = c.socketBandwidth / (sharers > 0 ? sharers : 1);
    double bw = perWorker < c.coreBandwidth ? perWorker : c.coreBandwidth;
    w.advance(lat + static_cast<double>(bytes) / bw);
  }
  /// Atomic read-modify-write contention: each ownership *transition* of a
  /// cache line between cores pays a line transfer; a line that alternates
  /// rapidly (several transitions without a sustained single-core streak)
  /// is hot and pays the transfer on every access, like a hammered shared
  /// counter. Lines that one core re-owns for a stretch re-localize.
  void chargeAtomic(WorkerCtx& w, MemObject& obj, i64 elemIndex) {
    stats_.atomicOps++;
    MemObject::AtomicLine& line = obj.atomicLine(elemIndex);
    bool charge = false;
    if (line.lastCore >= 0 && line.lastCore != w.core) {
      line.streak = 0;
      if (++line.transitions >= 3) line.hot = true;
      charge = true;
    } else if (++line.streak > 16) {
      line.hot = false;
      line.transitions = 0;
    }
    line.lastCore = w.core;
    if (cfg_.chargeAtomicContention && (charge || line.hot))
      w.advance(cfg_.cost.atomicPingPong);
    chargeMem(w, obj.homeSocket, 8);
    w.advance(cfg_.cost.atomicCost);
  }
  void chargeAlloc(WorkerCtx& w, i64 bytes) {
    if (faultPlan_.enabled() && faultPlan_.allocFails(allocSeq_++)) {
      // Transient allocation failure: the runtime retries after a backoff,
      // so only virtual time is lost (the failed attempt plus the wait).
      stats_.faultsInjected++;
      w.advance(cfg_.cost.allocBase + faultPlan_.config().rtoNs);
    }
    w.advance(cfg_.cost.allocBase +
              cfg_.cost.allocPerKb * static_cast<double>(bytes) / 1024.0);
  }

 private:
  [[noreturn]] void fireKill(int rank, double clock);
  /// Handles a caught RankKillSignal: either rolls back for a replay attempt
  /// or throws the terminal VmError (no checkpoint yet / budget exhausted).
  void recoverFromKill(const RankKillSignal& k);
  [[noreturn]] void failKilled(const RankKillSignal& k, std::string detail);

  /// Folded 8-byte access charges for one home socket at a given sharer
  /// count (-1 = stale).
  struct MemCharge {
    int sharers = -1;
    double local8 = 0, remote8 = 0;
  };
  void foldMemCharge(MemCharge& mc, int sharers) const {
    const CostModel& c = cfg_.cost;
    double perWorker = c.socketBandwidth / (sharers > 0 ? sharers : 1);
    double bw = perWorker < c.coreBandwidth ? perWorker : c.coreBandwidth;
    mc.local8 = c.memLatencyLocal + 8.0 / bw;
    mc.remote8 = c.memLatencyRemote + 8.0 / bw;
    mc.sharers = sharers;
  }
  void resetMemCharges() {
    memCharge_.assign(static_cast<std::size_t>(cfg_.sockets), MemCharge{});
  }

  MachineConfig cfg_;
  RunStats stats_;
  MemoryManager mem_;
  std::unique_ptr<Fabric> fabric_;
  CoopScheduler sched_;
  std::vector<int> workers_;
  std::vector<MemCharge> memCharge_;
  Launch launch_{};
  std::uint64_t runId_ = 0;        // see runId()
  std::vector<RankEnv>* envs_ = nullptr;
  FaultPlan faultPlan_;
  std::uint64_t allocSeq_ = 0;     // per-run allocation index for the plan
  std::vector<char> rankDone_;     // ranks whose fn returned normally
  // Checkpoint/restart state (inert unless the fault plan kills ranks).
  std::unique_ptr<CheckpointManager> ckpt_;
  std::vector<double> killAt_;     // per-rank pending kill time (-1: none)
  std::vector<int> killCursor_;    // crashes consumed (recovered) per rank
  bool killArmed_ = false;
  double watchdogSlackNs_ = 0;     // recovery time excused from the watchdog
  // Elastic recovery placement: persona -> hosting rank, per-host alive flag
  // and persona load. Identity/all-alive/1 until an elastic kill re-homes a
  // dead rank's persona onto a survivor (persists across replay attempts of
  // one run).
  std::vector<int> hostOf_;
  std::vector<char> hostAlive_;
  std::vector<int> hostLoad_;
};

}  // namespace parad::psim
